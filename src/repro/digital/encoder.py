"""The FAI ADC's digital encoder (paper Sec. III-B, Figs. 4 and 8).

Signal flow, exactly as the paper describes:

1. **Majority bubble correction** -- every thermometer bit is replaced
   by the majority of itself and its two neighbours (Fig. 8 cells),
   removing single-bit "bubbles" caused by comparator offset/noise.
   The coarse code is a plain thermometer (AND/OR boundary cells); the
   fine code from the folded comparator bank is *cyclic*, so its
   correction wraps around.
2. **Thermometer -> Gray** -- XOR-tree taps: Gray bit k is the parity of
   the thermometer at positions (2i+1)*2^k - 1.
3. **Fold-reflection correction** -- on odd folds the fine code runs
   backwards; in Gray domain a reflection is exactly an MSB flip
   (gray(N-1-x) = gray(x) XOR MSB), so one XOR with the coarse binary
   LSB fixes it.
4. **Gray -> binary** -- the usual XOR chain.
5. **Synchronisation** -- every cell is latch-merged (``*_PIPE``) and
   :func:`repro.digital.pipeline.balance_pipeline` inserts shared
   alignment registers, reducing the logic depth to one cell as in the
   paper.

The builder also exposes :func:`reference_encode`, a plain-Python golden
model the netlist is verified against bit-exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DesignError
from .netlist import GateNetlist, Pin
from .pipeline import balance_pipeline


@dataclass(frozen=True)
class EncoderSpec:
    """Encoder geometry.

    Attributes:
        coarse_bits: MSBs from the coarse flash sub-ADC.
        fine_bits: LSBs from the folding/interpolating fine path.
        bubble_correction: Majority stage on the *coarse* thermometer
            (the paper applies it only there, Sec. III-B).
        fine_bubble_correction: Optional cyclic majority on the fine
            code.  Off by default: a cyclic majority cannot distinguish
            the legitimate single-bit codes at fold boundaries from
            bubbles, costing 1 LSB there -- a robustness-vs-accuracy
            trade-off the E12 benchmark quantifies.
        input_capture: Register every comparator output before the
            logic (synchronisation latches).
        sync_correction: The ref-[14] coarse/fine error correction: the
            fold parity is re-derived from the fine word itself
            (pi = parity of all fine bits XOR the LSB of the Gray-
            decoded value), the six low bits u64 = code mod 64 come
            entirely from the fine path, and the upper bits are
            *snapped* to the coarse estimate:
            k = ((32 s + 48 - u64) mod 2^N) >> 6, which tolerates
            coarse boundary errors up to ~15 LSB.  Without it, the
            fine Gray MSB is reflected with the coarse LSB and
            boundary offsets appear directly as DNL at codes 31/32 of
            every segment.
        pipelined: Balance into a depth-1 systolic pipeline.
    """

    coarse_bits: int = 3
    fine_bits: int = 5
    bubble_correction: bool = True
    fine_bubble_correction: bool = False
    input_capture: bool = True
    sync_correction: bool = False
    pipelined: bool = True

    def __post_init__(self) -> None:
        if self.coarse_bits < 1 or self.fine_bits < 1:
            raise DesignError("coarse_bits and fine_bits must be >= 1")

    @property
    def total_bits(self) -> int:
        return self.coarse_bits + self.fine_bits

    @property
    def n_coarse_thermo(self) -> int:
        """Coarse flash comparators (thermometer length)."""
        return 2 ** self.coarse_bits - 1

    @property
    def n_fine_thermo(self) -> int:
        """Fine comparators (cyclic code length)."""
        return 2 ** self.fine_bits


# -- golden-model helpers ---------------------------------------------------

def thermometer_to_gray_taps(n_bits: int, length: int) -> list[list[int]]:
    """Tap positions per Gray bit (index 0 = LSB) for a thermometer of
    ``length`` bits: Gray bit k taps positions (2i+1)*2^k - 1."""
    taps = []
    for k in range(n_bits):
        positions = []
        i = 1
        while i * 2 ** k - 1 < length:
            positions.append(i * 2 ** k - 1)
            i += 2
        if not positions:
            raise DesignError(
                f"no taps for Gray bit {k} at length {length}")
        taps.append(positions)
    return taps


def majority_correct(bits: tuple[bool, ...], cyclic: bool) -> tuple[bool, ...]:
    """Neighbour-majority bubble correction of a (cyclic) thermometer."""
    n = len(bits)
    corrected = []
    for i in range(n):
        if cyclic:
            left, right = bits[(i - 1) % n], bits[(i + 1) % n]
        else:
            left = bits[i - 1] if i > 0 else True
            right = bits[i + 1] if i < n - 1 else False
        trio = (left, bits[i], right)
        corrected.append(sum(trio) >= 2)
    return tuple(corrected)


def gray_to_binary(gray: list[bool]) -> int:
    """Gray word (index 0 = LSB) to integer."""
    bits = [False] * len(gray)
    acc = False
    for k in reversed(range(len(gray))):
        acc = acc != gray[k]
        bits[k] = acc
    return sum(1 << k for k, b in enumerate(bits) if b)


def _gray_word(bits: tuple[bool, ...], taps: list[list[int]]) -> list[bool]:
    word = []
    for positions in taps:
        parity = False
        for p in positions:
            parity = parity != bits[p]
        word.append(parity)
    return word


def reference_encode(coarse_thermo: tuple[bool, ...],
                     fine_thermo: tuple[bool, ...],
                     spec: EncoderSpec) -> int:
    """Golden-model encoder the gate netlist must match bit-exactly."""
    if len(coarse_thermo) != spec.n_coarse_thermo:
        raise DesignError(
            f"expected {spec.n_coarse_thermo} coarse bits, "
            f"got {len(coarse_thermo)}")
    if len(fine_thermo) != spec.n_fine_thermo:
        raise DesignError(
            f"expected {spec.n_fine_thermo} fine bits, "
            f"got {len(fine_thermo)}")
    coarse = tuple(bool(b) for b in coarse_thermo)
    fine = tuple(bool(b) for b in fine_thermo)
    if spec.bubble_correction:
        coarse = majority_correct(coarse, cyclic=False)
    if spec.fine_bubble_correction:
        fine = majority_correct(fine, cyclic=True)

    coarse_gray = _gray_word(
        coarse, thermometer_to_gray_taps(spec.coarse_bits,
                                         spec.n_coarse_thermo))
    coarse_value = gray_to_binary(coarse_gray)

    fine_gray = _gray_word(
        fine, thermometer_to_gray_taps(spec.fine_bits, spec.n_fine_thermo))

    if spec.sync_correction and spec.coarse_bits >= 2:
        # Ref-[14] correction: reconstruct code mod 2F purely from the
        # fine word, then snap the upper bits to the coarse estimate.
        f_codes = spec.n_fine_thermo  # F = 2^fine_bits
        x = gray_to_binary(fine_gray)
        p_all = False
        for bit in fine:
            p_all = p_all != bit
        fold_parity = p_all != bool(x & 1)
        u_2f = (2 * f_codes - 1 - x) if fold_parity else x
        t = (f_codes * coarse_value + f_codes + f_codes // 2
             - u_2f) % 2 ** spec.total_bits
        k = t >> (spec.fine_bits + 1)
        return k * 2 * f_codes + u_2f

    # Fold-reflection correction: odd folds run backwards; in Gray domain
    # that is an MSB flip.
    if coarse_value & 1:
        fine_gray[-1] = not fine_gray[-1]
    fine_value = gray_to_binary(fine_gray)
    return coarse_value * 2 ** spec.fine_bits + fine_value


def cyclic_fine_thermometer(code: int, spec: EncoderSpec) -> tuple[bool, ...]:
    """Fine comparator-bank output for overall ``code`` (golden model of
    the analog folding front end).

    Comparator i flips each time the input passes a zero crossing of its
    folded signal, i.e. at code levels i, i + 2^f, i + 2*2^f, ...; its
    output is the parity of crossings passed.
    """
    n = spec.n_fine_thermo
    if not 0 <= code < 2 ** spec.total_bits:
        raise DesignError(f"code {code} out of range")
    return tuple(((code - i + n - 1) // n) % 2 == 1 if code > i
                 else False for i in range(n))


def coarse_thermometer(code: int, spec: EncoderSpec) -> tuple[bool, ...]:
    """Coarse flash output for overall ``code``."""
    segment = code >> spec.fine_bits
    return tuple(i < segment for i in range(spec.n_coarse_thermo))


def _majority_rows(bits: np.ndarray, cyclic: bool) -> np.ndarray:
    """Vectorised neighbour-majority over (n_bits, n_samples) rows."""
    left = np.empty_like(bits)
    right = np.empty_like(bits)
    left[1:] = bits[:-1]
    right[:-1] = bits[1:]
    if cyclic:
        left[0] = bits[-1]
        right[-1] = bits[0]
    else:
        left[0] = True
        right[-1] = False
    # maj(l, b, r) = (l & b) | (r & (l | b))
    right &= left | bits
    left &= bits
    left |= right
    return left


def _gray_rows(thermo: np.ndarray, n_bits: int) -> np.ndarray:
    """Gray rows (LSB first) of (length, n_samples) thermometer rows: bit
    k is the parity of the taps (2i+1)*2^k - 1, a strided row slice."""
    gray = np.empty((n_bits, thermo.shape[1]), dtype=bool)
    for k in range(n_bits):
        np.bitwise_xor.reduce(thermo[2 ** k - 1::2 ** (k + 1)], axis=0,
                              out=gray[k])
    return gray


def _binary_from_gray(gray: np.ndarray) -> np.ndarray:
    """Integer values of (n_bits, n_samples) Gray rows, LSB first."""
    acc = np.zeros(gray.shape[1], dtype=bool)
    value = np.zeros(gray.shape[1], dtype=np.int64)
    for row in gray[::-1]:
        acc ^= row
        value <<= 1
        value += acc
    return value


def encode_batch(coarse_thermo: np.ndarray, fine_thermo: np.ndarray,
                 spec: EncoderSpec) -> np.ndarray:
    """Vectorised :func:`reference_encode` over many samples.

    ``coarse_thermo``: shape (n_samples, 2^c - 1) booleans;
    ``fine_thermo``: shape (n_samples, 2^f) booleans.  Returns an int
    array of output codes.  Bit-exact against the scalar golden model
    (and therefore against the gate netlist).
    """
    coarse = np.asarray(coarse_thermo, dtype=bool)
    fine = np.asarray(fine_thermo, dtype=bool)
    if coarse.ndim != 2 or coarse.shape[1] != spec.n_coarse_thermo:
        raise DesignError(
            f"coarse_thermo must be (n, {spec.n_coarse_thermo})")
    if fine.ndim != 2 or fine.shape[1] != spec.n_fine_thermo:
        raise DesignError(f"fine_thermo must be (n, {spec.n_fine_thermo})")
    # Work on contiguous (bit, sample) rows; the fine path's words are
    # transposed views of that layout already.
    coarse = np.ascontiguousarray(coarse.T)
    fine = np.ascontiguousarray(fine.T)
    if spec.bubble_correction:
        coarse = _majority_rows(coarse, cyclic=False)
    if spec.fine_bubble_correction:
        fine = _majority_rows(fine, cyclic=True)

    coarse_value = _binary_from_gray(_gray_rows(coarse, spec.coarse_bits))
    fine_gray = _gray_rows(fine, spec.fine_bits)

    if spec.sync_correction and spec.coarse_bits >= 2:
        f_codes = spec.n_fine_thermo
        x = _binary_from_gray(fine_gray)
        p_all = np.bitwise_xor.reduce(fine, axis=0)
        fold_parity = p_all != (x & 1).astype(bool)
        u_2f = np.where(fold_parity, 2 * f_codes - 1 - x, x)
        t = (f_codes * coarse_value + f_codes + f_codes // 2
             - u_2f) % 2 ** spec.total_bits
        k = t >> (spec.fine_bits + 1)
        return k * 2 * f_codes + u_2f

    fine_gray[-1] ^= (coarse_value & 1).astype(bool)
    fine_value = _binary_from_gray(fine_gray)
    return coarse_value * 2 ** spec.fine_bits + fine_value


# -- netlist construction ---------------------------------------------------

#: A symbolic logic value: a compile-time constant, or a net with a free
#: differential-inversion flag (SCL wire swap).
_Val = bool | tuple[str, bool]


class _LogicBuilder:
    """Builds pipelined gates while folding constants and inversions.

    Constants never instantiate gates (they are design-time wiring) and
    inversions ride on pins for free -- both properties of differential
    source-coupled logic that keep the synthesised cell count honest.
    """

    def __init__(self, netlist: GateNetlist, prefix: str) -> None:
        self.netlist = netlist
        self.prefix = prefix
        self._count = 0

    def _emit(self, cell: str, operands: list[tuple[str, bool]]) -> _Val:
        self._count += 1
        out = f"{self.prefix}{self._count}"
        self.netlist.add_gate(f"g_{out}", cell,
                              [Pin(net=n, inverted=i) for n, i in operands],
                              out)
        return (out, False)

    @staticmethod
    def not_(a: _Val) -> _Val:
        if isinstance(a, bool):
            return not a
        return (a[0], not a[1])

    def xor2(self, a: _Val, b: _Val) -> _Val:
        if isinstance(a, bool):
            return self.not_(b) if a else b
        if isinstance(b, bool):
            return self.not_(a) if b else a
        # Operand inversions commute out of an XOR.
        out_inv = a[1] != b[1]
        net, inv = self._emit("XOR2_PIPE", [(a[0], False), (b[0], False)])
        return (net, inv != out_inv)

    def xor3(self, a: _Val, b: _Val, c: _Val) -> _Val:
        constants = [v for v in (a, b, c) if isinstance(v, bool)]
        if constants:
            nets = [v for v in (a, b, c) if not isinstance(v, bool)]
            parity = sum(constants) % 2 == 1
            if len(nets) == 0:
                return parity
            if len(nets) == 1:
                return self.not_(nets[0]) if parity else nets[0]
            result = self.xor2(nets[0], nets[1])
            return self.not_(result) if parity else result
        out_inv = (a[1] != b[1]) != c[1]
        net, inv = self._emit(
            "FASUM_PIPE", [(a[0], False), (b[0], False), (c[0], False)])
        return (net, inv != out_inv)

    def and2(self, a: _Val, b: _Val) -> _Val:
        if isinstance(a, bool):
            return b if a else False
        if isinstance(b, bool):
            return a if b else False
        return self._emit("AND2_PIPE", [a, b])

    def or2(self, a: _Val, b: _Val) -> _Val:
        if isinstance(a, bool):
            return True if a else b
        if isinstance(b, bool):
            return True if b else a
        return self._emit("OR2_PIPE", [a, b])

    def maj3(self, a: _Val, b: _Val, c: _Val) -> _Val:
        nets = [v for v in (a, b, c) if not isinstance(v, bool)]
        ones = sum(1 for v in (a, b, c) if v is True)
        zeros = sum(1 for v in (a, b, c) if v is False)
        if ones >= 2:
            return True
        if zeros >= 2:
            return False
        if ones == 1 and zeros == 1:
            return nets[0]
        if ones == 1:
            return self.or2(nets[0], nets[1])
        if zeros == 1:
            return self.and2(nets[0], nets[1])
        return self._emit("MAJ3_PIPE", [a, b, c])

    def buf(self, a: _Val) -> _Val:
        if isinstance(a, bool):
            raise DesignError("cannot register a constant")
        return self._emit("BUF_PIPE", [a])


def _xor_tree(netlist: GateNetlist, nets: list[str], prefix: str) -> str:
    """Balanced tree of XOR2_PIPE cells; returns the parity net."""
    level = 0
    current = list(nets)
    while len(current) > 1:
        nxt = []
        for k in range(0, len(current) - 1, 2):
            out = f"{prefix}_l{level}_{k // 2}"
            netlist.add_gate(f"g_{out}", "XOR2_PIPE",
                             [current[k], current[k + 1]], out)
            nxt.append(out)
        if len(current) % 2:
            nxt.append(current[-1])
        current = nxt
        level += 1
    return current[0]


def build_fai_encoder(spec: EncoderSpec | None = None) -> GateNetlist:
    """Generate the complete encoder netlist.

    Primary inputs: ``c0..`` (coarse thermometer, LSB side first) and
    ``f0..`` (cyclic fine code).  Primary outputs: ``b0..`` (binary,
    LSB first, after pipeline alignment).
    """
    spec = spec or EncoderSpec()
    netlist = GateNetlist("fai_encoder")
    raw_coarse = [netlist.add_input(f"c{i}")
                  for i in range(spec.n_coarse_thermo)]
    raw_fine = [netlist.add_input(f"f{i}")
                for i in range(spec.n_fine_thermo)]

    # Stage 0: comparator-output synchronisation latches.
    if spec.input_capture:
        coarse_in, fine_in = [], []
        for i, net in enumerate(raw_coarse):
            out = f"cr{i}"
            netlist.add_gate(f"g_{out}", "BUF_PIPE", [net], out)
            coarse_in.append(out)
        for i, net in enumerate(raw_fine):
            out = f"fr{i}"
            netlist.add_gate(f"g_{out}", "BUF_PIPE", [net], out)
            fine_in.append(out)
    else:
        coarse_in, fine_in = list(raw_coarse), list(raw_fine)

    # Stage 1: majority bubble correction (Fig. 8 cells) on the coarse
    # thermometer; boundary cells degenerate to OR / AND.
    if spec.bubble_correction:
        coarse = []
        for i, net in enumerate(coarse_in):
            out = f"cm{i}"
            if i == 0:
                # maj(1, T0, T1) = T0 OR T1
                netlist.add_gate(f"g_{out}", "OR2_PIPE",
                                 [net, coarse_in[1]], out)
            elif i == len(coarse_in) - 1:
                # maj(T[n-2], T[n-1], 0) = AND
                netlist.add_gate(f"g_{out}", "AND2_PIPE",
                                 [coarse_in[i - 1], net], out)
            else:
                netlist.add_gate(f"g_{out}", "MAJ3_PIPE",
                                 [coarse_in[i - 1], net, coarse_in[i + 1]],
                                 out)
            coarse.append(out)
    else:
        coarse = list(coarse_in)

    if spec.fine_bubble_correction:
        fine = []
        n = len(fine_in)
        for i, net in enumerate(fine_in):
            out = f"fm{i}"
            netlist.add_gate(f"g_{out}", "MAJ3_PIPE",
                             [fine_in[(i - 1) % n], net,
                              fine_in[(i + 1) % n]], out)
            fine.append(out)
    else:
        fine = list(fine_in)

    # Stage 2: thermometer -> Gray XOR trees.
    coarse_taps = thermometer_to_gray_taps(spec.coarse_bits,
                                           spec.n_coarse_thermo)
    coarse_gray = []
    for k, positions in enumerate(coarse_taps):
        nets = [coarse[p] for p in positions]
        if len(nets) == 1:
            out = f"cg{k}"
            netlist.add_gate(f"g_{out}", "BUF_PIPE", nets, out)
            coarse_gray.append(out)
        else:
            coarse_gray.append(_xor_tree(netlist, nets, f"cg{k}"))

    fine_taps = thermometer_to_gray_taps(spec.fine_bits, spec.n_fine_thermo)
    fine_gray = []
    for k, positions in enumerate(fine_taps):
        nets = [fine[p] for p in positions]
        if len(nets) == 1:
            out = f"fg{k}"
            netlist.add_gate(f"g_{out}", "BUF_PIPE", nets, out)
            fine_gray.append(out)
        else:
            fine_gray.append(_xor_tree(netlist, nets, f"fg{k}"))

    # Stage 3: coarse Gray -> binary (XOR chain from the MSB down).
    coarse_bin: list[str | None] = [None] * spec.coarse_bits
    msb = spec.coarse_bits - 1
    netlist.add_gate("g_cb_msb", "BUF_PIPE", [coarse_gray[msb]],
                     f"cb{msb}")
    coarse_bin[msb] = f"cb{msb}"
    for k in range(msb - 1, -1, -1):
        out = f"cb{k}"
        netlist.add_gate(f"g_{out}", "XOR2_PIPE",
                         [coarse_bin[k + 1], coarse_gray[k]], out)
        coarse_bin[k] = out

    if spec.sync_correction and spec.coarse_bits >= 2:
        word = _build_sync_correction(netlist, spec, coarse_bin,
                                      fine_gray, fine)
    else:
        word = _build_reflection_decode(netlist, spec, coarse_bin,
                                        fine_gray)

    # Output register stage; buf() folds any symbolic inversion into the
    # register's input pin, so the marked nets carry true polarity.
    builder = _LogicBuilder(netlist, "ob")
    for value in word:
        out_net, _inv = builder.buf(value)
        netlist.mark_output(out_net)

    netlist.validate()
    if spec.pipelined:
        netlist = balance_pipeline(netlist)
    return netlist


def _build_reflection_decode(netlist: GateNetlist, spec: EncoderSpec,
                             coarse_bin: list[str],
                             fine_gray: list[str]) -> list[_Val]:
    """The simple decode: reflect the fine Gray MSB with the coarse LSB,
    then Gray -> binary.  Returns the output word LSB-first."""
    fine_msb = spec.fine_bits - 1
    netlist.add_gate("g_reflect", "XOR2_PIPE",
                     [fine_gray[fine_msb], coarse_bin[0]], "fgc_msb")
    corrected = list(fine_gray)
    corrected[fine_msb] = "fgc_msb"

    fine_bin: list[str] = [""] * spec.fine_bits
    netlist.add_gate("g_fb_msb", "BUF_PIPE", [corrected[fine_msb]],
                     f"fb{fine_msb}")
    fine_bin[fine_msb] = f"fb{fine_msb}"
    for k in range(fine_msb - 1, -1, -1):
        out = f"fb{k}"
        netlist.add_gate(f"g_{out}", "XOR2_PIPE",
                         [fine_bin[k + 1], corrected[k]], out)
        fine_bin[k] = out
    return ([(net, False) for net in fine_bin]
            + [(net, False) for net in coarse_bin])


def _build_sync_correction(netlist: GateNetlist, spec: EncoderSpec,
                           coarse_bin: list[str], fine_gray: list[str],
                           fine: list[str]) -> list[_Val]:
    """The ref-[14] coarse/fine synchronisation datapath.

    Computes, in gates: the raw fine binary x (no reflection); the fold
    parity pi = parity(all fine bits) XOR x0; the six-bit in-pair
    position u = pi ? (2F-1-x) : x (conditional inversion = XOR);
    and the snapped upper bits k = bits [f+1..N) of
    (F*(s+1) + F/2) - u computed by a ripple carry chain with constant
    folding.  Returns the N-bit output word LSB-first.
    """
    builder = _LogicBuilder(netlist, "sc")
    f_bits = spec.fine_bits
    n_bits = spec.total_bits

    # Raw fine Gray -> binary chain (MSB down), registered per step.
    x: list[_Val] = [None] * f_bits  # type: ignore[list-item]
    x[f_bits - 1] = builder.buf((fine_gray[f_bits - 1], False))
    for k in range(f_bits - 2, -1, -1):
        x[k] = builder.xor2(x[k + 1], (fine_gray[k], False))

    # Parity of every fine bit: the Gray LSB tree already covers the
    # even positions; XOR in the complement.
    taps0 = set(thermometer_to_gray_taps(1, spec.n_fine_thermo)[0])
    others = [net for i, net in enumerate(fine) if i not in taps0]
    level: list[_Val] = [(net, False) for net in others]
    while len(level) > 1:
        nxt = [builder.xor2(level[i], level[i + 1])
               for i in range(0, len(level) - 1, 2)]
        if len(level) % 2:
            nxt.append(level[-1])
        level = nxt
    p_all = builder.xor2(level[0], (fine_gray[0], False))
    fold_parity = builder.xor2(p_all, x[0])

    # u = x XOR fold_parity (per bit), u[f] = fold_parity.
    u: list[_Val] = [builder.xor2(x[k], fold_parity)
                     for k in range(f_bits)]
    u.append(fold_parity)

    # Incremented coarse word w = s + 1 (mod 2^c).
    w: list[_Val] = []
    carry: _Val = True
    for j in range(spec.coarse_bits):
        s_j: _Val = (coarse_bin[j], False)
        w.append(builder.xor2(s_j, carry))
        carry = builder.and2(s_j, carry)

    # A = (w << f) | (1 << (f-1));  t = A - u = A + ~u + 1 (mod 2^N).
    def a_bit(i: int) -> _Val:
        if i == f_bits - 1:
            return True
        if f_bits <= i < f_bits + spec.coarse_bits:
            return w[i - f_bits]
        return False

    def b_bit(i: int) -> _Val:
        return builder.not_(u[i]) if i <= f_bits else True

    sum_bits: list[_Val] = []
    carry = True  # the +1 of the two's complement
    for i in range(n_bits):
        a, b = a_bit(i), b_bit(i)
        if i >= f_bits + 1:
            sum_bits.append(builder.xor3(a, b, carry))
        if i < n_bits - 1:
            carry = builder.maj3(a, b, carry)

    return u + sum_bits


def encoder_output_value(netlist: GateNetlist,
                         values: dict[str, bool]) -> int:
    """Read the binary output word from simulated net ``values``.

    Works on both the raw and the pipeline-balanced netlist (whose
    output nets may be renamed alignment nets, kept in b0.. order).
    """
    total = 0
    for k, net in enumerate(netlist.primary_outputs):
        if values[net]:
            total += 1 << k
    return total
