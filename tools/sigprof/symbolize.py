#!/usr/bin/env python3
"""Per-symbol shares of the samples sigprof.c recorded.

  python3 tools/sigprof/symbolize.py sigprof.<pid> [more files] [--top N]
      [--lines BINARY]

Each sampled instruction pointer is mapped through the process's
/proc/self/maps to an object file and an ELF virtual address, and from
there to the symbol that covers it, using `nm` (the static symbol table,
or the dynamic one for stripped libraries such as libc and libm, where a
share goes to the nearest exported symbol below). Prints each symbol's
share of all samples, then each object's share. Linux x86-64 ELF only.

--lines BINARY adds a table of per-`file:line` shares: samples that fell
in BINARY (the profiled program, matched by path or else by file name)
go through `addr2line` to the source line they executed, the innermost
inlined one; samples elsewhere count under their object's name. BINARY
needs debug line info: build it with -DCMAKE_CXX_FLAGS=-g, which adds
the tables and leaves the generated code alone.
"""
import bisect
import collections
import os
import struct
import subprocess
import sys


def read_profile(path):
    """Returns (pcs, maps) from one sigprof output file."""
    with open(path) as f:
        lines = f.read().splitlines()
    if not lines or lines[0] != "sigprof 1":
        sys.exit("symbolize: %s is not a sigprof file" % path)
    header = dict(line.split(" ", 1) for line in lines[1:4])
    n = int(header["samples"])
    pcs = [int(x, 16) for x in lines[4:4 + n]]
    if lines[4 + n] != "maps":
        sys.exit("symbolize: %s: missing maps section" % path)
    maps = []
    for line in lines[5 + n:]:
        parts = line.split(None, 5)
        if len(parts) < 6 or "x" not in parts[1] or not parts[5].startswith("/"):
            continue
        lo, hi = (int(x, 16) for x in parts[0].split("-"))
        maps.append((lo, hi, int(parts[2], 16), parts[5]))
    maps.sort()
    return pcs, maps


def load_segments(path):
    """PT_LOAD (p_offset, p_vaddr, p_filesz) of an ELF64 file."""
    with open(path, "rb") as f:
        ident = f.read(64)
        if ident[:4] != b"\x7fELF" or ident[4] != 2:
            return []
        phoff, = struct.unpack_from("<Q", ident, 32)
        phentsize, phnum = struct.unpack_from("<HH", ident, 54)
        f.seek(phoff)
        table = f.read(phentsize * phnum)
    segs = []
    for i in range(phnum):
        p_type, _, p_offset, p_vaddr, _, p_filesz = struct.unpack_from(
            "<IIQQQQ", table, i * phentsize)
        if p_type == 1:
            segs.append((p_offset, p_vaddr, p_filesz))
    return segs


def load_symbols(path):
    """Sorted (address, size, name) of the object's defined symbols."""
    for flags in ([], ["-D"]):
        out = subprocess.run(
            ["nm", "-C", "-S", "-n", "--defined-only"] + flags + [path],
            capture_output=True, text=True).stdout
        syms = []
        for line in out.splitlines():
            parts = line.split(None, 3)
            if len(parts) == 4 and parts[2] in "tTwWi":
                syms.append((int(parts[0], 16), int(parts[1], 16), parts[3]))
            elif len(parts) == 3 and parts[1] in "tTwWi":
                syms.append((int(parts[0], 16), 0, parts[2]))
        if syms:
            return syms
    return []


class Object:
    def __init__(self, path):
        self.name = os.path.basename(path)
        self.segments = load_segments(path) if os.path.isfile(path) else []
        self.symbols = load_symbols(path) if self.segments else []
        self.addrs = [s[0] for s in self.symbols]

    def vaddr(self, file_offset):
        """ELF virtual address of a file offset; None outside PT_LOAD."""
        for off, base, size in self.segments:
            if off <= file_offset < off + size:
                return base + file_offset - off
        return None

    def symbol(self, file_offset):
        vaddr = self.vaddr(file_offset)
        if vaddr is None:
            return "?"
        i = bisect.bisect_right(self.addrs, vaddr) - 1
        if i < 0:
            return "?"
        addr, size, name = self.symbols[i]
        # A sized symbol that ends below the address does not cover it
        # (PLT stubs, padding); unsized ones get every address above.
        if size and vaddr >= addr + size:
            return "[after %s]" % name
        return name


def same_file(a, b):
    """Whether two paths name one file: the same inode, else (a profile
    read on another machine or from a copy) the same file name."""
    try:
        return os.path.samefile(a, b)
    except OSError:
        return os.path.basename(a) == os.path.basename(b)


def source_lines(binary, vaddrs):
    """{vaddr: "dir/file:line"} through one addr2line call over BINARY."""
    vaddrs = sorted(vaddrs)
    out = subprocess.run(
        ["addr2line", "-e", binary],
        input="".join("%x\n" % a for a in vaddrs),
        capture_output=True, text=True, check=True).stdout.splitlines()
    if len(out) != len(vaddrs):
        sys.exit("symbolize: addr2line returned %d lines for %d addresses"
                 % (len(out), len(vaddrs)))
    lines = {}
    for a, loc in zip(vaddrs, out):
        loc = loc.split(" (discriminator")[0]
        path, _, line = loc.rpartition(":")
        # The parent directory keeps src/sim/x.cpp apart from tests/sim/x.cpp
        # while staying short.
        short = os.path.join(os.path.basename(os.path.dirname(path)),
                             os.path.basename(path)) if path else "??"
        lines[a] = "%s:%s" % (short, line)
    return lines


def take_option(argv, flag, convert):
    if flag not in argv:
        return None
    i = argv.index(flag)
    if i + 1 >= len(argv):
        sys.exit("symbolize: %s needs a value" % flag)
    value = convert(argv[i + 1])
    del argv[i:i + 2]
    return value


def main(argv):
    top = take_option(argv, "--top", int) or 40
    lines_binary = take_option(argv, "--lines", str)
    if not argv:
        sys.exit(__doc__)
    if lines_binary is not None and not os.path.isfile(lines_binary):
        sys.exit("symbolize: --lines: no such file %s" % lines_binary)
    objects = {}
    by_line = collections.Counter()  # filled only with --lines
    by_symbol = collections.Counter()
    by_object = collections.Counter()
    by_vaddr = collections.Counter()  # samples in --lines BINARY
    total = 0
    for path in argv:
        pcs, maps = read_profile(path)
        starts = [m[0] for m in maps]
        for pc in pcs:
            total += 1
            i = bisect.bisect_right(starts, pc) - 1
            if i < 0 or pc >= maps[i][1]:
                by_symbol[("?", "[unmapped]")] += 1
                by_object["[unmapped]"] += 1
                continue
            lo, _, offset, obj_path = maps[i]
            obj = objects.get(obj_path)
            if obj is None:
                obj = objects[obj_path] = Object(obj_path)
            by_symbol[(obj.symbol(pc - lo + offset), obj.name)] += 1
            by_object[obj.name] += 1
            if lines_binary is not None:
                vaddr = obj.vaddr(pc - lo + offset)
                if vaddr is not None and same_file(obj_path, lines_binary):
                    by_vaddr[vaddr] += 1
                else:
                    by_line["[%s]" % obj.name] += 1
    if total == 0:
        sys.exit("symbolize: no samples")
    print("%d samples" % total)
    print("%7s %7s  %s" % ("share", "samples", "symbol [object]"))
    for (name, obj), n in by_symbol.most_common(top):
        print("%6.2f%% %7d  %s [%s]" % (100.0 * n / total, n, name, obj))
    print()
    for obj, n in by_object.most_common():
        print("%6.2f%% %7d  %s" % (100.0 * n / total, n, obj))
    if lines_binary is not None:
        if by_vaddr:
            for vaddr, loc in source_lines(lines_binary, by_vaddr).items():
                by_line[loc] += by_vaddr[vaddr]
        print()
        print("%7s %7s  %s" % ("share", "samples", "file:line [or object]"))
        for loc, n in by_line.most_common(top):
            print("%6.2f%% %7d  %s" % (100.0 * n / total, n, loc))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
