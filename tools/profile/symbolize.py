#!/usr/bin/env python3
"""Turn sampler.c's c9prof.<pid>.txt files into self and inclusive tables.

Usage: symbolize.py [--focus FUNC] [--require FUNC] [--callers FUNC [--chain N]]
                    [--top N] FILE...

Each sample is a stack of return addresses; every address is mapped to its
object file through the recorded executable mappings and resolved with
llvm-symbolizer (inlined frames included, Rust hashes stripped). Printed:

  self       share of samples whose innermost frame is the function
  inclusive  share of samples with the function anywhere on the stack
             (counted once per sample, recursion included)

--focus FUNC keeps only the samples with a frame containing FUNC (e.g.
run_quantum: the timed exploration of a perf_suite repetition) and prints
shares of those. --require FUNC exits 1 unless some sample has a frame
containing FUNC. A sample's file and line are not kept: the tables are by
function.

--callers FUNC prints, instead of the tables, who FUNC's time is spent
for: the samples with a frame containing FUNC, grouped by the chain of
the nearest N (--chain, default 2) frames of this repository's crates
(`c9_*`) outside FUNC's innermost frame. Each chain gets its share of
FUNC's samples and of all (focused) samples. It exits 1 when no sample
has such a chain. `--callers BTreeMap` is the view that tells a B-tree
behind the frontier from one behind other bookkeeping.
"""

import argparse
import collections
import re
import shutil
import struct
import subprocess
import sys

# Left over when llvm-symbolizer demangles a legacy Rust symbol only in part:
# its hash, an LLVM clone suffix, and the `$..$` escapes.
HASH = re.compile(r"(::h[0-9a-f]{16})?( \(\.llvm\.\d+\))?$")
ESCAPES = {
    "$LT$": "<", "$GT$": ">", "$LP$": "(", "$RP$": ")", "$C$": ",",
    "$RF$": "&", "$BP$": "*", "$SP$": "@", "$u20$": " ", "$u27$": "'",
    "$u5b$": "[", "$u5d$": "]", "$u7b$": "{", "$u7d$": "}", "$u7e$": "~",
    "$u3b$": ";", "$u2b$": "+", "$u22$": '"',
}


def clean(name):
    """A function name as a reader writes it."""
    name = HASH.sub("", name)
    if "$" in name:
        for escape, text in ESCAPES.items():
            name = name.replace(escape, text)
        name = name.replace("..", "::").replace("::_{", "::{")
        if name.startswith("_<"):
            name = name[1:]
    return name


def load_segments(path):
    """(p_offset, p_vaddr, p_filesz) of the PT_LOAD segments of an ELF64."""
    with open(path, "rb") as f:
        header = f.read(64)
        if header[:4] != b"\x7fELF" or header[4] != 2:
            return []
        phoff, = struct.unpack_from("<Q", header, 0x20)
        phentsize, phnum = struct.unpack_from("<HH", header, 0x36)
        f.seek(phoff)
        table = f.read(phentsize * phnum)
    segments = []
    for i in range(phnum):
        p_type, _, p_offset, p_vaddr, _, p_filesz = struct.unpack_from(
            "<IIQQQQ", table, i * phentsize
        )
        if p_type == 1:
            segments.append((p_offset, p_vaddr, p_filesz))
    return segments


def parse(paths):
    """The mappings and the samples of every file, addresses resolved to
    (object, virtual address in the object) pairs."""
    samples = []
    for path in paths:
        maps = []
        with open(path) as f:
            lines = f.read().splitlines()
        for line in lines:
            if line.startswith("map "):
                fields = line[4:].split()
                start, end = (int(x, 16) for x in fields[0].split("-"))
                maps.append((start, end, int(fields[2], 16), fields[5]))
        segments = {}
        for line in lines:
            if not line.startswith("s"):
                continue
            stack = []
            for depth, word in enumerate(line.split()[1:]):
                addr = int(word, 16)
                # A return address points after its call; the call is what
                # ran. The innermost frame is the interrupted instruction.
                if depth > 0:
                    addr -= 1
                for start, end, offset, obj in maps:
                    if start <= addr < end:
                        if obj not in segments:
                            try:
                                segments[obj] = load_segments(obj)
                            except OSError:
                                segments[obj] = []
                        file_offset = addr - start + offset
                        vaddr = file_offset
                        for p_offset, p_vaddr, p_filesz in segments[obj]:
                            if p_offset <= file_offset < p_offset + p_filesz:
                                vaddr = file_offset - p_offset + p_vaddr
                        stack.append((obj, vaddr))
                        break
            samples.append(stack)
    return samples


def find_symbolizer():
    """llvm-symbolizer, or the newest versioned one on PATH."""
    for name in ["llvm-symbolizer"] + [f"llvm-symbolizer-{v}" for v in range(22, 11, -1)]:
        if shutil.which(name):
            return name
    sys.exit("symbolize: no llvm-symbolizer on PATH")


def symbolize(samples):
    """Maps every (object, address) to its function names, innermost first."""
    symbolizer = find_symbolizer()
    wanted = collections.defaultdict(set)
    for stack in samples:
        for obj, addr in stack:
            wanted[obj].add(addr)
    names = {}
    for obj, addrs in wanted.items():
        addrs = sorted(addrs)
        query = "".join(f"0x{a:x}\n" for a in addrs)
        try:
            out = subprocess.run(
                [symbolizer, f"--obj={obj}", "--functions=linkage", "--demangle"],
                input=query, capture_output=True, text=True, check=True,
            ).stdout
        except (OSError, subprocess.CalledProcessError) as e:
            sys.exit(f"symbolize: llvm-symbolizer failed on {obj}: {e}")
        # One block per address: function and location lines, innermost
        # inlined frame first, blocks separated by an empty line.
        blocks = out.strip("\n").split("\n\n")
        for addr, block in zip(addrs, blocks):
            lines = block.splitlines()
            functions = [clean(name) for name in lines[0::2]]
            functions = [f if f != "??" else f"{obj.rsplit('/', 1)[-1]}+0x{addr:x}"
                         for f in functions]
            names[(obj, addr)] = functions
    return [[name for frame in stack for name in names[frame]] for stack in samples]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="+")
    parser.add_argument("--focus")
    parser.add_argument("--require")
    parser.add_argument("--callers")
    parser.add_argument("--chain", type=int, default=2)
    parser.add_argument("--top", type=int, default=25)
    args = parser.parse_args()

    stacks = symbolize(parse(args.files))
    total = len(stacks)
    if args.require and not any(args.require in f for s in stacks for f in s):
        sys.exit(f"symbolize: no sample of {total} has a frame with {args.require!r}")
    if args.focus:
        stacks = [s for s in stacks if any(args.focus in f for f in s)]
    print(f"{len(stacks)} samples" + (f" with {args.focus!r} of {total}" if args.focus else ""))
    if not stacks:
        return
    if args.callers:
        callers(stacks, args.callers, args.chain, args.top)
        return
    own = collections.Counter(s[0] for s in stacks if s)
    inclusive = collections.Counter(f for s in stacks for f in set(s))
    for title, counts in (("self", own), ("inclusive", inclusive)):
        print(f"\n{title:>9}  function")
        for function, n in counts.most_common(args.top):
            print(f"{100.0 * n / len(stacks):8.1f}%  {function}")


def is_ours(function):
    """Whether a frame is a function of this repository's crates."""
    return function.lstrip("<").startswith("c9_")


def callers(stacks, func, depth, top):
    """Shares of FUNC's samples per chain of the nearest `c9_*` frames
    outside its innermost frame (stacks are innermost first)."""
    chains = collections.Counter()
    hits = 0
    for stack in stacks:
        inner = next((i for i, f in enumerate(stack) if func in f), None)
        if inner is None:
            continue
        hits += 1
        ours = [f for f in stack[inner + 1:] if is_ours(f)][:depth]
        if ours:
            chains[" <- ".join(ours)] += 1
    print(f"{hits} samples with {func!r} ({100.0 * hits / len(stacks):.1f}%)")
    if not chains:
        sys.exit(f"symbolize: no sample with {func!r} has a c9_* caller")
    print(f"\n{'of func':>8} {'of all':>7}  callers, nearest first")
    for chain, n in chains.most_common(top):
        print(f"{100.0 * n / hits:7.1f}% {100.0 * n / len(stacks):6.1f}%  {chain}")


if __name__ == "__main__":
    main()
