#!/usr/bin/env python3
"""Sampling profiler for one command, standard library only.

Usage: profile.py [--within FUNCTION] [--] COMMAND [ARG...]

Runs COMMAND with address-space randomisation off, samples the
instruction pointer of each of its threads every INTERVAL_MS with
ptrace (seize and interrupt, read the registers, detach — seizing sends
no SIGSTOP, so none is left pending to stop the command for good), and
when the command exits
symbolises the samples with `addr2line -f -i -C` and prints the TOP
largest inclusive shares: by function and by `file:line`, where
"inclusive" counts a sample once for every function (or line) on its
inline chain. Frames are not unwound, so a caller that is not inlined
gets no share of its callees' samples.

`--within FUNCTION` keeps only the samples whose inline chain has a
function whose name contains FUNCTION (`--within start_tx_into`): the
tables then split that function's share by the functions and lines
inlined into it, still as shares of all samples.

The line-tables build it needs and a worked invocation are in DESIGN.md
§7, "Where the time goes". x86-64 Linux only; needs permission to
ptrace its own children (the default Yama setting allows it).
"""

import collections
import ctypes
import os
import signal
import struct
import subprocess
import sys
import time

PTRACE_GETREGS = 12
PTRACE_DETACH = 17
PTRACE_SEIZE = 0x4206
PTRACE_INTERRUPT = 0x4207
ADDR_NO_RANDOMIZE = 0x0040000
WALL = 0x40000000  # __WALL: wait for any thread, cloned or not
RIP = 16  # index of rip in struct user_regs_struct (x86-64)
INTERVAL_MS = 2  # sampling period
TOP = 30  # rows per table

libc = ctypes.CDLL(None, use_errno=True)
libc.ptrace.argtypes = [ctypes.c_long, ctypes.c_long, ctypes.c_void_p, ctypes.c_void_p]
libc.ptrace.restype = ctypes.c_long


def spawn(argv):
    """Forks and execs `argv` with ASLR off; returns the child's pid."""
    pid = os.fork()
    if pid == 0:
        try:
            libc.personality(ADDR_NO_RANDOMIZE)
            os.execvp(argv[0], argv)
        finally:
            os._exit(127)
    return pid


def sample_rip(tid):
    """`(rip, None)` for a stopped thread, `(None, status)` if waiting on it
    reaped the process instead, `(None, None)` if it could not be read."""
    if libc.ptrace(PTRACE_SEIZE, tid, None, None) != 0:
        return None, None
    libc.ptrace(PTRACE_INTERRUPT, tid, None, None)
    try:
        _, status = os.waitpid(tid, WALL)
    except ChildProcessError:
        return None, None
    if not os.WIFSTOPPED(status):
        return None, status
    regs = (ctypes.c_ulonglong * 27)()
    ok = libc.ptrace(PTRACE_GETREGS, tid, None, ctypes.byref(regs)) == 0
    # A signal that arrived first stopped the thread instead of the
    # interrupt: hand it back on the way out. An event stop has none.
    sig = os.WSTOPSIG(status) if status >> 16 == 0 else 0
    libc.ptrace(PTRACE_DETACH, tid, None, ctypes.c_void_p(sig))
    return (regs[RIP] if ok else None), None


def read_maps(pid):
    """Executable mappings: (start, end, file offset, path)."""
    maps = []
    try:
        with open(f"/proc/{pid}/maps") as f:
            for line in f:
                parts = line.split()
                if len(parts) < 6 or "x" not in parts[1]:
                    continue
                start, end = (int(x, 16) for x in parts[0].split("-"))
                maps.append((start, end, int(parts[2], 16), parts[5]))
    except OSError:
        pass
    return maps


def load_segments(path):
    """PT_LOAD segments of an ELF64 file: (file offset, size, vaddr)."""
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
            "<IIQQQQ", table, i * phentsize
        )
        if p_type == 1:
            segs.append((p_offset, p_filesz, p_vaddr))
    return segs


def to_vaddr(segs, off):
    for p_offset, p_filesz, p_vaddr in segs:
        if p_offset <= off < p_offset + p_filesz:
            return off - p_offset + p_vaddr
    return None


def symbolise(path, vaddrs):
    """Inline chain [(function, file:line), ...] per address, innermost first."""
    chains = {}
    if not vaddrs:
        return chains
    query = "\n".join(hex(a) for a in vaddrs) + "\n"
    out = subprocess.run(
        ["addr2line", "-a", "-f", "-i", "-C", "-e", path],
        input=query, capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    addr, pending = None, None
    for line in out:
        if line.startswith("0x") and pending is None:
            addr = int(line, 16)
            chains[addr] = []
        elif pending is None:
            pending = line
        else:
            chains[addr].append((pending, shorten(line)))
            pending = None
    return chains


def shorten(loc):
    """`/abs/path/crates/x/src/y.rs:12 (discriminator 3)` -> `crates/x/src/y.rs:12`."""
    loc = loc.split(" (discriminator")[0]
    for marker in ("/crates/", "/benchmark/", "/src/", "/library/"):
        i = loc.rfind(marker)
        if i >= 0:
            return loc[i + 1:]
    return loc


def main():
    argv = sys.argv[1:]
    within = None
    if argv[:1] == ["--within"] and len(argv) > 1:
        within, argv = argv[1], argv[2:]
    argv = argv[1:] if argv[:1] == ["--"] else argv
    if not argv or within == "":
        print("usage: profile.py [--within FUNCTION] [--] COMMAND [ARG...]", file=sys.stderr)
        return 2

    pid = spawn(argv)
    rips = collections.Counter()
    maps = []
    status = None
    while status is None:
        time.sleep(INTERVAL_MS / 1000.0)
        done, st = os.waitpid(pid, os.WNOHANG)
        if done:
            status = st
            break
        try:
            tids = [int(t) for t in os.listdir(f"/proc/{pid}/task")]
        except OSError:
            continue
        for tid in tids:
            rip, exited = sample_rip(tid)
            if exited is not None and tid == pid:
                status = exited
            if rip is None:
                continue
            rips[rip] += 1
            # Mappings are read while the process lives, again whenever a
            # sample lands outside every one seen so far (a late dlopen).
            if not any(s <= rip < e for s, e, _, _ in maps):
                maps = read_maps(pid) or maps

    # Addresses -> (object, vaddr) through the mappings seen while running.
    per_object = collections.defaultdict(collections.Counter)
    unmapped = 0
    for rip, n in rips.items():
        hit = next(((s, o, p) for s, e, o, p in maps if s <= rip < e), None)
        if hit is None:
            unmapped += n
            continue
        start, off, path = hit
        per_object[path][rip - start + off] += n

    total = sum(rips.values())
    kept = 0
    by_func = collections.Counter()
    by_line = collections.Counter()
    for path, offs in per_object.items():
        segs = load_segments(path) if os.path.isfile(path) else []
        vaddrs = {off: to_vaddr(segs, off) for off in offs}
        chains = symbolise(path, sorted({v for v in vaddrs.values() if v is not None}))
        name = os.path.basename(path)
        for off, n in offs.items():
            chain = chains.get(vaddrs[off]) or [(f"[{name}]", f"[{name}]")]
            if within is not None and not any(within in f for f, _ in chain):
                continue
            kept += n
            for func in {f if f != "??" else f"[{name}]" for f, _ in chain}:
                by_func[func] += n
            for loc in {l for _, l in chain if not l.startswith("??")}:
                by_line[loc] += n
    if unmapped and within is None:
        by_func["[unmapped]"] += unmapped

    code = os.waitstatus_to_exitcode(status)
    print(f"{total} samples every {INTERVAL_MS} ms; command exited {code}", file=sys.stderr)
    if within is not None:
        share = 100.0 * kept / max(total, 1)
        print(f"{kept} samples ({share:.1f}%) have `{within}` on their inline chain")
    for title, table in (("function", by_func), ("file:line", by_line)):
        print(f"\n{'share':>7}  inclusive, by {title}")
        for key, n in table.most_common(TOP):
            print(f"{100.0 * n / max(total, 1):6.1f}%  {key}")
    return 0 if code == 0 else 1


if __name__ == "__main__":
    signal.signal(signal.SIGINT, signal.SIG_DFL)
    sys.exit(main())
