#!/usr/bin/env python3
"""Symbolizes the stacks scripts/sampler/sigprof.c recorded.

    symbolize.py RAW --binary EXE [--top N] [--folded PATH]
                 [--share LABEL=REGEX]...

RAW is the sampler's output ($SAMPLE_OUT); RAW.maps is the process's
/proc/self/maps. Every distinct address inside EXE, a -g build, is
resolved once with `addr2line -a -f -i -C` (the PIE base is the start of
EXE's offset-0 mapping), inlined frames included. Addresses in other
objects show as [object]: stripped system libraries carry no names
addr2line could trust. Prints:

  * inclusive shares: for each named function, the share of samples with
    it anywhere on the stack;
  * caller-attributed leaves: each sample's innermost frame, with leaves
    outside namespace catalyst (libc, libstdc++) charged to the innermost
    catalyst frame that called them;
  * one line per --share: the samples whose folded stack (frames
    root-to-leaf, joined by ';', parameter lists dropped) matches REGEX
    anywhere (Python re.search).

--folded writes the folded stacks ("frame;frame;... count"), the input
format of flame-graph tools.
"""

import argparse
import array
import collections
import os
import re
import subprocess
import sys


def read_samples(path):
    words = array.array("Q")
    with open(path, "rb") as f:
        words.frombytes(f.read())
    samples, at = [], 0
    while at < len(words) and words[at] > 0:
        n = words[at]
        samples.append(tuple(words[at + 1:at + 1 + n]))
        at += 1 + n
    return samples


def read_maps(path):
    """[(start, end, base, object path)] of the file-backed mappings."""
    rows, base_of = [], {}
    with open(path) as f:
        for line in f:
            parts = line.split(maxsplit=5)
            if len(parts) < 6 or not parts[5].startswith("/"):
                continue
            start, end = (int(x, 16) for x in parts[0].split("-"))
            obj = parts[5].strip()
            if int(parts[2], 16) == 0:
                base_of.setdefault(obj, start)
            rows.append((start, end, obj))
    return [(s, e, base_of.get(o, s), o) for s, e, o in rows]


OPERATOR = re.compile(r"operator(\(\)|[^\w\s(]*)|\(anonymous namespace\)")


def strip_params(name):
    """Drops parameter lists: 'ns::f<void (int)>(int) const' ->
    'ns::f<void (int)>'."""
    out, parens, angles, i = [], 0, 0, 0
    while i < len(name):
        c = name[i]
        if parens > 0:
            parens += {"(": 1, ")": -1}.get(c, 0)
        elif (token := OPERATOR.match(name, i)):
            out.append(token.group())
            i = token.end()
            continue
        elif c == "(" and angles == 0:
            parens = 1
        else:
            angles += {"<": 1, ">": -1 if angles > 0 else 0}.get(c, 0)
            out.append(c)
        i += 1
    return re.sub(r" (const|volatile|&&|&)(?=$|::)", "", "".join(out))


def resolve(addresses, maps, binary):
    """{address: [frame names, innermost first]}."""
    names, ours = {}, []
    for addr in addresses:
        hit = next((m for m in maps if m[0] <= addr < m[1]), None)
        if hit is None:
            names[addr] = ["[unknown]"]
        elif hit[3] == binary:
            ours.append((addr, hit[2]))
        else:
            names[addr] = ["[" + os.path.basename(hit[3]) + "]"]
    query = "".join(f"{addr - base:x}\n" for addr, base in ours)
    out = subprocess.run(["addr2line", "-a", "-f", "-i", "-C", "-e", binary],
                         input=query, capture_output=True, text=True,
                         check=True)
    blocks = []
    for line in out.stdout.splitlines():
        if line.startswith("0x"):
            blocks.append([])
        elif blocks:
            blocks[-1].append(line)
    for (addr, _), block in zip(ours, blocks):
        frames = [strip_params(f) for f in block[0::2] if f != "??"]
        names[addr] = frames or ["[" + os.path.basename(binary) + "]"]
    return names


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("raw")
    parser.add_argument("--binary", required=True)
    parser.add_argument("--top", type=int, default=40)
    parser.add_argument("--folded")
    parser.add_argument("--share", action="append", default=[],
                        metavar="LABEL=REGEX")
    args = parser.parse_args()

    samples = read_samples(args.raw)
    if not samples:
        sys.exit("symbolize: no samples")
    maps = read_maps(args.raw + ".maps")
    # The first frame is the interrupted pc; the others are return
    # addresses, looked up one byte back so they land in the call.
    lookups = {(addr if i == 0 else addr - 1)
               for stack in samples for i, addr in enumerate(stack)}
    names = resolve(sorted(lookups), maps, os.path.realpath(args.binary))

    folded = collections.Counter()
    for stack in samples:
        frames = []
        for i, addr in enumerate(stack):
            frames.extend(names[addr if i == 0 else addr - 1])
        folded[";".join(reversed(frames))] += 1

    total = sum(folded.values())
    inclusive, leaves = collections.Counter(), collections.Counter()
    for line, count in folded.items():
        frames = line.split(";")
        for name in set(frames):
            inclusive[name] += count
        leaf = frames[-1]
        caller = next((f for f in reversed(frames)
                       if f.startswith("catalyst::")), None)
        key = leaf if caller in (None, leaf) else f"{leaf}  <-  {caller}"
        leaves[key] += count

    print(f"{total} samples")
    print(f"\ninclusive share (top {args.top}):")
    for name, count in inclusive.most_common(args.top):
        print(f"  {100.0 * count / total:5.1f}%  {count:6d}  {name}")
    print(f"\ncaller-attributed leaves (top {args.top}):")
    for name, count in leaves.most_common(args.top):
        print(f"  {100.0 * count / total:5.1f}%  {count:6d}  {name}")
    for spec in args.share:
        label, _, pattern = spec.partition("=")
        regex = re.compile(pattern)
        count = sum(c for line, c in folded.items() if regex.search(line))
        print(f"\nshare {label}: {count} of {total} samples "
              f"({100.0 * count / total:.1f}%)")
    if args.folded:
        with open(args.folded, "w") as f:
            for line, count in sorted(folded.items()):
                f.write(f"{line} {count}\n")


if __name__ == "__main__":
    main()
