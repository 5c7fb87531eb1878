"""Generated Python code for recorded programs.

:func:`generate` turns a :class:`~expstab.duals.Tape` and the outputs of
its recording into a plain Python function, the replayable program that
:meth:`Tape.compile <expstab.duals.Tape.compile>` returns.  The code is
generated as source text and compiled chunk by chunk.  The module knows
the tape only through its registers, so :mod:`expstab.duals` imports it
and not the other way round.
"""

from __future__ import annotations

import itertools
import math
import operator
import sys

import numpy as np


class ReplayError(RuntimeError):
    """A program was replayed on inputs that do not match its recording."""


# operations whose entry at one node is the same operation on the operands'
# entries there, bit for bit and with the same overflow and NaN results on
# Python floats (float division and powers raise where arrays do not)
_ELEMENTWISE = frozenset([operator.add, operator.sub, operator.mul, operator.neg])


def last_node(v) -> float:
    """``float(v[-1])``: a node-batched array's entry at its last node.

    A recorded read of an elementwise expression whose leaves are all
    float scalars or constants costs no array operation:
    :meth:`expstab.duals.Tape.call` records it as the same expression on
    the leaves' last entries.  The generated code reads an unrolled
    array's last entry directly.
    """
    return float(v[-1])


# infix forms of the recorded operators; every other function is called
_INFIX = {
    operator.add: "{} + {}",
    operator.sub: "{} - {}",
    operator.mul: "{} * {}",
    operator.truediv: "{} / {}",
    operator.pow: "{} ** {}",
    operator.matmul: "{} @ {}",
    operator.neg: "-{}",
}

# An elementwise operation whose result is a 1-d float64 array of at most
# this many entries runs as one float statement per entry, on Python
# locals.  On a 2-core x86-64 machine (Python 3.11, numpy 2.4) a numpy
# ``*`` or ``+`` of two (L,) arrays cost about 370 ns at every L up to 64
# and a float statement about 11 ns, so the two break even near 35
# entries; 24 leaves room for the conversions where unrolled and numpy
# operations meet (at 9 entries a ``tolist`` split cost 0.16 us and an
# ``array`` rebuild 0.6 us).
_UNROLL = 24

# the most operations one unrolled statement computes; at order 3, fusing
# a value into its only reader made a replay about 5% faster and its
# compile about a fifth shorter than one statement per operation
_FUSE = 8

# generated functions hold at most this many statements, so compiling a
# large program costs time and memory in proportion to its length
_CHUNK_STATEMENTS = 200


# every identifier of a generated program, kept interned for the life of
# the process: names interned when a program is compiled and released with
# it churn the interpreter's table of interned strings until it doubles in
# size (about 1 MB more memory after some 250 wing-rock runs)
_IDENTIFIERS = set()


def _flatten(node, reg_of, out: list) -> None:
    if type(node) is tuple or type(node) is list:
        for e in node:
            _flatten(e, reg_of, out)
    else:
        out.append(reg_of(node))


def _render(node, ref) -> str:
    if type(node) is tuple or type(node) is list:
        return "(" + "".join(_render(e, ref) + ", " for e in node) + ")"
    return ref(node)


def generate(tape, outputs):
    """The function :meth:`Tape.compile <expstab.duals.Tape.compile>` returns.

    Operations no output depends on are dropped, and a register slot is
    reused as soon as its last reader has run.

    An elementwise ``+ - * neg`` whose result is a 1-d float64 array
    of at most ``_UNROLL`` entries is unrolled into one float
    expression per entry when each operand is a float scalar, a
    vector of the same length or a float64 constant of shape ``()``,
    ``(1,)`` or that length; a constant's entries are literals.  Every
    other operation is one call.  An unrolled value takes one register
    slot per entry, unless one unrolled operation is its only reader:
    then its expressions are terms of the reader's, up to ``_FUSE``
    operations to a statement.  Where the two kinds of operation meet,
    an array that an unrolled operation reads is split once with
    ``tolist()``, an unrolled value that a call reads is rebuilt once
    with ``array``, an unrolled output is rebuilt where it is returned,
    and a :func:`last_node` read of an unrolled value is its last
    entry.  Each entry is the IEEE operation numpy applies, so the
    values are bit-identical to the array operation's, NaN payloads
    aside.

    The statements run in generated functions of at most
    ``_CHUNK_STATEMENTS`` each, a statement counting once for each
    operation it computes, ``_c0`` first, on Python locals: one local
    per register slot, so reusing a slot frees its value.  A value
    crosses from one chunk to a later one through a shared list (an
    unrolled value as one tuple), and only such values do; the list
    lets go of it in the chunk that reads it last.  Each chunk is
    generated and compiled in turn.  Finite float and int constants
    are literals, and every other constant and function is a global of
    the generated code.  A program of one chunk is ``_c0`` itself; a
    longer one calls its chunks in order.
    """
    reg_of = tape._reg_of
    consts = tape._consts
    lengths = tape._lengths
    out_regs = []
    _flatten(outputs, reg_of, out_regs)
    used = set(out_regs)
    order = []
    for op in reversed(tape._ops):
        if op[1] in used:
            order.append(op)
            used.update(op[2])
    order.reverse()
    n_inputs = len(tape._inputs)

    def entrywise(reg, n) -> bool:
        # a Python float at each of n entries
        if reg in consts:
            c = consts[reg]
            return type(c) is float or type(c) is np.float64 or (
                type(c) is np.ndarray and c.dtype == np.float64
                and c.shape in ((), (1,), (n,)))
        if reg in lengths:
            return lengths[reg] == n
        return type(tape._scalars.get(reg)) is float

    unrolled = {}  # register -> length, for the unrolled operations
    at = {}  # unrolled register -> its operation
    reader = {}  # unrolled register -> its one unrolled reader, or None
    for i, (fn, out, args) in enumerate(order):
        n = lengths.get(out)
        if n is not None and n <= _UNROLL and fn in _ELEMENTWISE \
                and all(entrywise(a, n) for a in args):
            unrolled[out] = n
            at[out] = i
        for a in args:
            if a in unrolled:
                reader[a] = i if a not in reader and out in unrolled else None
    for reg in out_regs:
        reader[reg] = None
    fused = set()
    size = {}  # unrolled register -> the operations its statements compute
    for out in at:
        inner = [a for a in order[at[out]][2] if reader.get(a) is not None]
        size[out] = 1 + sum([size[a] for a in inner])
        if size[out] <= _FUSE:
            fused.update(inner)
        else:
            size[out] = 1

    # A value has two keys: its register, for one local (a float, an
    # array, or an unrolled value rebuilt), and ~register, for the
    # locals of its entries (an unrolled value's own, or an array
    # split).  A key that is not its register's own form is made from
    # the other one just before its first reader.  (No helper here
    # calls itself: a recursive closure is a reference cycle, which
    # would keep the program and the compiler's tables until the next
    # collection.)
    reads = {}  # operation -> its keys, a fused operand's included
    made = {}  # operation -> the keys made just before it
    last_use = {}
    for i, (fn, out, args) in enumerate(order):
        if out in unrolled:
            keys = []
            for a in args:
                if a in fused:
                    keys += reads.pop(at[a])
                elif a not in consts:
                    keys.append(~a if a in lengths else a)
        elif fn is last_node and args[0] in unrolled:
            keys = [~args[0]]
        else:
            keys = [a for a in args if a not in consts]
        reads[i] = keys
        if out in fused:
            continue
        for k in keys:
            if k not in last_use and (k < 0) != ((~k if k < 0 else k) in unrolled):
                made.setdefault(i, []).append(k)
                last_use[~k] = i
            last_use[k] = i
    for reg in out_regs:
        last_use[~reg if reg in unrolled else reg] = len(order)

    namespace = {"ReplayError": ReplayError}
    names = {}  # constant register or function -> its name in the code

    def literal(v) -> str:
        if (type(v) is float and math.isfinite(v)) or type(v) is int:
            text = repr(v)  # exact for a finite float
            return f"({text})" if text.startswith("-") else text
        name = f"k{len(namespace)}"
        namespace[name] = v
        return name

    def operand(reg):
        """A constant's source text, or the register itself."""
        if reg not in consts:
            return reg
        got = names.get(reg)
        if got is None:
            got = names[reg] = literal(consts[reg])
        return got

    # allocate slots: the inputs lead, and a freed slot is reused first;
    # the slots an operation's statements assign are taken before those
    # its last reads free, except for a call, which is one statement
    slot = {reg: i for i, reg in enumerate(tape._inputs)}  # key -> slot(s)
    free = []
    n_slots = n_inputs

    def take() -> int:
        nonlocal n_slots
        if free:
            return free.pop()
        n_slots += 1
        return n_slots - 1

    def release(key):
        if key < 0:
            free.extend(slot[key])
        elif slot[key] >= n_inputs:
            free.append(slot[key])

    # a chunk ends before the operation that would take it past
    # _CHUNK_STATEMENTS, with the conversions that operation needs
    starts = [0]
    filled = 0
    for i, keys in reads.items():
        fn, out, args = order[i]
        sources = []
        for k in made.get(i, ()):
            slot[k] = [take() for _ in range(lengths[~k])] if k < 0 else take()
            sources.append(~k)
        n = unrolled.get(out)
        cost = len(sources) + (n * size[out] if n else 1)
        if filled and filled + cost > _CHUNK_STATEMENTS:
            starts.append(i)
            filled = 0
        filled += cost
        if n is not None:
            slot[~out] = [take() for _ in range(n)]
            for k in set(keys + sources):
                if last_use[k] == i:
                    release(k)
            continue
        for a in args:
            operand(a)
        for k in sources:
            if last_use[k] == i:
                release(k)
        for a in set(args):
            if a not in consts:
                k = ~a if fn is last_node and a in unrolled else a
                if last_use[k] == i:
                    release(k)
        slot[out] = take()

    def local(key) -> str:
        """A key's local, or its entries' locals as a tuple's items."""
        if key >= 0:
            return f"v{slot[key]}"
        return ", ".join([f"v{s}" for s in slot[key]]) + ","

    def cell(key) -> int:
        """A key's entry in the shared list."""
        return slot[key] if key >= 0 else slot[key][0]

    def rebuilt(key) -> str:
        namespace.setdefault("array", np.array)
        return f"array(({local(key)}))"

    fused_terms = {}  # fused register -> its terms, until its reader's

    def terms(i) -> list:
        """Unrolled operation ``i``'s expression for each entry."""
        fn, out, args = order[i]
        n = unrolled[out]
        columns = [fused_terms.pop(a) if a in fused else entries(a, n) for a in args]
        return [_INFIX[fn].format(*row) for row in zip(*columns)]

    def entries(reg, n) -> list:
        """An unrolled operand's source text for each entry."""
        if reg not in consts:
            k = ~reg if reg in lengths else reg
            return [f"v{s}" for s in slot[k]] if k < 0 else [f"v{slot[k]}"] * n
        got = names.get(~reg)
        if got is None:
            c = consts[reg]
            values = c.reshape(-1).tolist() if type(c) is np.ndarray else [float(c)]
            got = names[~reg] = [literal(v) for v in values]
        return got if len(got) == n else got * n

    def statements(i) -> list:
        """Operation ``i``'s statements, after the conversions it needs."""
        fn, out, args = order[i]
        lines = [f"{local(k)} = {local(~k)}.tolist()" if k < 0
                 else f"{local(k)} = {rebuilt(~k)}" for k in made.get(i, ())]
        if out in unrolled:
            return lines + [f"v{s} = {t}" for s, t in zip(slot[~out], terms(i))]
        if fn is last_node and args[0] in unrolled:
            return lines + [f"v{slot[out]} = v{slot[~args[0]][-1]}"]
        refs = [f"v{slot[a]}" if a not in consts else operand(a) for a in args]
        form = _INFIX.get(fn)
        if form is not None:
            expr = form.format(*refs)
        else:
            name = names.get(fn)
            if name is None:
                name = names[fn] = f"f{len(namespace)}"
                namespace[name] = fn
            expr = f"{name}({', '.join(refs)})"
        return lines + [f"v{slot[out]} = {expr}"]

    chunks = {}  # name -> chunk function
    starts.append(len(order))
    for lo, hi in itertools.pairwise(starts):
        # the keys this chunk assigns (the inputs, in the first chunk),
        # and the keys it reads from an earlier chunk, in order
        held = set(tape._inputs) if lo == 0 else set()
        loaded = {}
        body = []
        for i in range(lo, hi):
            out = order[i][1]
            if out in fused:
                fused_terms[out] = [f"({t})" for t in terms(i)]
                continue
            for k in made.get(i, ()):
                if ~k not in held:
                    loaded[~k] = None
                held.add(k)
            for k in reads[i]:
                if k not in held:
                    loaded[k] = None
            held.add(~out if out in unrolled else out)
            body += [f"    {line}" for line in statements(i)]
        if hi == len(order):
            def ref(node):
                reg = reg_of(node)
                if reg in consts:
                    return operand(reg)
                k = ~reg if reg in unrolled else reg
                if k not in held:
                    loaded[k] = None
                return rebuilt(k) if k < 0 else local(k)

            body.append(f"    return {_render(outputs, ref)}")
        else:
            # the values a later chunk reads go through the shared list
            body += [f"    r[{cell(k)}] = " + (local(k) if k >= 0 else f"({local(k)})")
                     for k in held if last_use.get(k, -1) >= hi]
        if lo == 0:
            targets = "".join(f"v{s}, " for s in range(n_inputs)) or "()"
            head = [
                "def _c0(inputs):",
                "    try:",
                f"        {targets} = inputs",
                "    except ValueError:",
                "        raise ReplayError(",
                f"            f'program recorded for {n_inputs} inputs, "
                "got {len(inputs)}') from None",
            ]
            if hi < len(order):
                head.append(f"    r = [None] * {n_slots}")
                body.append("    return r")
        else:
            head = [f"def _c{lo}(r):"]
        for k in loaded:
            head.append(f"    {local(k)} = r[{cell(k)}]")
            if last_use[k] < hi:
                # read for the last time here: the list lets go of it,
                # so a reused slot frees its value as before
                head.append(f"    r[{cell(k)}] = None")
        # one function at a time bounds the compiler's memory
        exec(compile("\n".join(head + body) + "\n", "<recorded program>", "exec"), namespace)
        chunks[f"_c{lo}"] = namespace.pop(f"_c{lo}")
    starts.pop()
    _IDENTIFIERS.update(map(sys.intern, [*namespace, *chunks, *(f"v{s}" for s in range(n_slots))]))
    if len(starts) == 1:
        program = chunks["_c0"]
    else:
        # the entry's globals are the chunks, which do not refer back to
        # it: a program is freed without the collector
        exec(compile(
            "def program(inputs):\n"
            "    r = _c0(inputs)\n"
            + "".join(f"    _c{lo}(r)\n" for lo in starts[1:-1])
            + f"    return _c{starts[-1]}(r)\n",
            "<recorded program>", "exec"), chunks)
        program = chunks.pop("program")
    program.n_ops = len(order)
    return program
