// Package wire defines the compact binary serving format for
// topology-transparent schedules. The JSON document of EncodeSchedule is
// the right shape for humans and pipelines; it is the wrong shape for a
// fleet of 10^6 sensor nodes each pulling its frame — per-slot node lists
// as ASCII decimal arrays cost ~5 bytes per membership bit. The wire
// format stores each slot set as a delta-encoded varint vector (sorted
// ascending, so gaps are small and most elements fit one byte), carries
// the analysis summary a node needs (exact Theorem-2 average throughput,
// active fraction) alongside the schedule, and frames everything with a
// magic number, a version byte, an explicit payload length, and a CRC32
// so a truncated or corrupted download is detected before any of it is
// trusted.
//
// Encoding is canonical: bitset element order is ascending, big.Rat is
// normalized, and there is exactly one encoding of a given Frame. That
// makes the SHA-256 content digest of the encoded bytes a stable identity
// for the frame, which the serving tier uses as the HTTP ETag — a node
// that already holds a schedule revalidates with If-None-Match and pays a
// 304 instead of a re-download.
//
// The decoder is strict and bounded: every length is validated against
// both absolute caps and the bytes actually remaining, so hostile input
// cannot force large allocations, and any leftover byte after the CRC is
// an error.
package wire

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"math"
	"math/big"
	"math/bits"

	"repro/internal/bitset"
	"repro/internal/core"
)

// Format constants. Version is bumped on any layout change; decoders
// reject versions they do not know rather than guessing.
const (
	// Magic opens every frame: "TTDW" (topology-transparent duty-cycling
	// wire).
	Magic = "TTDW"
	// Version is the current layout version.
	Version = 1
)

// Decoder bounds. MaxDim matches the JSON decoder's dimension cap;
// MaxCells bounds the n×L footprint of a decoded schedule so one frame
// cannot demand gigabytes of bitsets before validation finishes.
const (
	MaxDim   = 1 << 20
	MaxCells = 1 << 28
	// maxRatBytes bounds the numerator/denominator magnitude of the
	// carried rational. Exact throughputs of servable schedules are tiny;
	// 4 KiB of big-endian magnitude is far beyond any of them.
	maxRatBytes = 4096
)

// Frame is one served schedule with its analysis summary: the class
// parameters the schedule answers for, the schedule itself, and the
// figures every client wants without re-deriving them.
type Frame struct {
	// Class parameters (request echo): the schedule serves N(n, D) with
	// transmitter/receiver caps (αT, αR) under the given division
	// strategy. AlphaT = AlphaR = 0 is the non-sleeping base schedule.
	N, D           int
	AlphaT, AlphaR int
	Strategy       core.DivisionStrategy

	// Schedule is the ⟨T,R⟩ activity schedule; Schedule.N() == N.
	Schedule *core.Schedule

	// AvgThroughput is the exact Theorem-2 expected worst-case
	// throughput for N(n, D). Never nil in an encodable frame.
	AvgThroughput *big.Rat
	// ActiveFraction is the fraction of (node, slot) pairs awake.
	ActiveFraction float64
}

// validate reports whether f is encodable.
func (f *Frame) validate() error {
	if f == nil || f.Schedule == nil {
		return fmt.Errorf("wire: nil frame or schedule")
	}
	if f.N != f.Schedule.N() {
		return fmt.Errorf("wire: frame n = %d but schedule universe is %d", f.N, f.Schedule.N())
	}
	if f.N < 1 || f.N > MaxDim {
		return fmt.Errorf("wire: n = %d outside [1, %d]", f.N, MaxDim)
	}
	if f.D < 0 || f.D > MaxDim {
		return fmt.Errorf("wire: D = %d outside [0, %d]", f.D, MaxDim)
	}
	if f.AlphaT < 0 || f.AlphaR < 0 || f.AlphaT > f.N || f.AlphaR > f.N {
		return fmt.Errorf("wire: caps (%d, %d) outside [0, n]", f.AlphaT, f.AlphaR)
	}
	if f.Strategy != core.Sequential && f.Strategy != core.Balanced {
		return fmt.Errorf("wire: unknown division strategy %d", int(f.Strategy))
	}
	if l := f.Schedule.L(); l > MaxDim || int64(f.N)*int64(l) > MaxCells {
		return fmt.Errorf("wire: schedule %d×%d exceeds wire bounds", f.N, l)
	}
	if f.AvgThroughput == nil || f.AvgThroughput.Sign() < 0 {
		return fmt.Errorf("wire: avg throughput missing or negative")
	}
	if f.ActiveFraction < 0 || f.ActiveFraction > 1 || math.IsNaN(f.ActiveFraction) {
		return fmt.Errorf("wire: active fraction %v outside [0, 1]", f.ActiveFraction)
	}
	return nil
}

// Encode renders f in the version-1 layout:
//
//	magic "TTDW" | version byte | uvarint payloadLen | payload | crc32(all preceding)
//
// payload:
//
//	uvarint n, D, αT, αR, strategy, L
//	L × ( slot transmitter set | slot receiver set )   delta-varint sets
//	uvarint |num|, num bytes, uvarint |den|, den bytes  exact avg throughput
//	8 bytes little-endian IEEE-754                      active fraction
//
// A delta-varint set is: uvarint count, then the first element, then each
// successive gap minus one — sortedness is therefore structural, not a
// convention the decoder must re-check.
func Encode(f *Frame) ([]byte, error) {
	if err := f.validate(); err != nil {
		return nil, err
	}
	s := f.Schedule
	// With n < 128 every count and gap is a one-byte varint, so sizing
	// the payload at one byte per varint is exact for the served classes;
	// a larger universe's few wider varints grow it by append.
	size := 64
	for i := 0; i < s.L(); i++ {
		size += 2 + s.T(i).Count() + s.R(i).Count()
	}
	payload := make([]byte, 0, size)
	payload = appendUvarints(payload,
		uint64(f.N), uint64(f.D), uint64(f.AlphaT), uint64(f.AlphaR),
		uint64(f.Strategy), uint64(s.L()))
	for i := 0; i < s.L(); i++ {
		payload = appendSet(payload, s.T(i))
		payload = appendSet(payload, s.R(i))
	}
	num, den := f.AvgThroughput.Num().Bytes(), f.AvgThroughput.Denom().Bytes()
	if len(num) > maxRatBytes || len(den) > maxRatBytes {
		return nil, fmt.Errorf("wire: avg throughput magnitude exceeds %d bytes", maxRatBytes)
	}
	payload = binary.AppendUvarint(payload, uint64(len(num)))
	payload = append(payload, num...)
	payload = binary.AppendUvarint(payload, uint64(len(den)))
	payload = append(payload, den...)
	payload = binary.LittleEndian.AppendUint64(payload, math.Float64bits(f.ActiveFraction))

	out := make([]byte, 0, len(Magic)+1+binary.MaxVarintLen64+len(payload)+crc32.Size)
	out = append(out, Magic...)
	out = append(out, Version)
	out = binary.AppendUvarint(out, uint64(len(payload)))
	out = append(out, payload...)
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(out))
	return out, nil
}

func appendUvarints(b []byte, vs ...uint64) []byte {
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// appendSet writes a set as its count, first element, then successive
// gaps minus one, reading the elements in increasing order straight off
// the set's words. Starting prev at -1 makes the first gap the first
// element itself.
func appendSet(b []byte, set *bitset.Set) []byte {
	b = binary.AppendUvarint(b, uint64(set.Count()))
	prev := -1
	for wi, w := range set.Words() {
		for w != 0 {
			e := wi*64 + bits.TrailingZeros64(w)
			b = binary.AppendUvarint(b, uint64(e-prev-1))
			prev = e
			w &= w - 1
		}
	}
	return b
}

// reader is a bounds-checked cursor over the encoded bytes. Every read
// method returns an error instead of panicking, and uvarints are rejected
// if they are non-minimal garbage (binary.Uvarint's overflow signal) or
// run past the buffer.
type reader struct {
	b   []byte
	off int
}

//ttdc:hotpath bounds cursor arithmetic on the decode path; two loads and a subtract
func (r *reader) remaining() int { return len(r.b) - r.off }

//ttdc:hotpath one call per encoded integer of every decoded frame; allocation belongs only to the cold error returns
func (r *reader) uvarint(what string) (uint64, error) {
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("wire: truncated or oversized varint reading %s at offset %d", what, r.off)
	}
	// Reject non-minimal encodings (0x80 0x00 is another spelling of 0):
	// a multi-byte varint whose final, continuation-free byte is zero
	// carries no information there. Without this, Decode(x) could succeed
	// on bytes Encode would never produce, and the content digest would
	// stop being a stable identity.
	if n > 1 && r.b[r.off+n-1] == 0 {
		return 0, fmt.Errorf("wire: non-minimal varint reading %s at offset %d", what, r.off)
	}
	r.off += n
	return v, nil
}

// intIn reads a uvarint and range-checks it into [0, max] as an int.
//
//ttdc:hotpath range-checked varint read on the decode path; cold error returns only
func (r *reader) intIn(what string, max int) (int, error) {
	v, err := r.uvarint(what)
	if err != nil {
		return 0, err
	}
	if v > uint64(max) {
		return 0, fmt.Errorf("wire: %s = %d exceeds %d", what, v, max)
	}
	return int(v), nil
}

//ttdc:hotpath zero-copy subslice read on the decode path; cold error returns only
func (r *reader) bytes(what string, n int) ([]byte, error) {
	if n < 0 || n > r.remaining() {
		return nil, fmt.Errorf("wire: truncated reading %d bytes of %s at offset %d", n, what, r.off)
	}
	b := r.b[r.off : r.off+n]
	r.off += n
	return b, nil
}

// Decode parses one encoded frame. It rejects bad magic, unknown
// versions, CRC mismatches, truncations, dimension-bound violations, and
// trailing bytes; on success Decode(Encode(f)) is structurally equal to f
// and re-encodes to identical bytes.
func Decode(data []byte) (*Frame, error) {
	r := &reader{b: data}
	magic, err := r.bytes("magic", len(Magic))
	if err != nil {
		return nil, err
	}
	if string(magic) != Magic {
		return nil, fmt.Errorf("wire: bad magic %q", magic)
	}
	ver, err := r.bytes("version", 1)
	if err != nil {
		return nil, err
	}
	if ver[0] != Version {
		return nil, fmt.Errorf("wire: unsupported version %d (have %d)", ver[0], Version)
	}
	plen, err := r.intIn("payload length", MaxDim*64)
	if err != nil {
		return nil, err
	}
	if plen != r.remaining()-crc32.Size {
		return nil, fmt.Errorf("wire: payload length %d does not match %d remaining bytes", plen, r.remaining()-crc32.Size)
	}
	crcStart := r.off + plen
	wantCRC := binary.LittleEndian.Uint32(data[crcStart:])
	if got := crc32.ChecksumIEEE(data[:crcStart]); got != wantCRC {
		return nil, fmt.Errorf("wire: CRC mismatch (frame says %08x, content is %08x)", wantCRC, got)
	}

	f := &Frame{}
	if f.N, err = r.intIn("n", MaxDim); err != nil {
		return nil, err
	}
	if f.N < 1 {
		return nil, fmt.Errorf("wire: n = 0")
	}
	if f.D, err = r.intIn("D", MaxDim); err != nil {
		return nil, err
	}
	if f.AlphaT, err = r.intIn("alphaT", f.N); err != nil {
		return nil, err
	}
	if f.AlphaR, err = r.intIn("alphaR", f.N); err != nil {
		return nil, err
	}
	strat, err := r.intIn("strategy", 1)
	if err != nil {
		return nil, err
	}
	f.Strategy = core.DivisionStrategy(strat)
	l, err := r.intIn("frame length", MaxDim)
	if err != nil {
		return nil, err
	}
	if l < 1 {
		return nil, fmt.Errorf("wire: frame length 0")
	}
	if int64(f.N)*int64(l) > MaxCells {
		return nil, fmt.Errorf("wire: schedule %d×%d exceeds %d cells", f.N, l, MaxCells)
	}
	t := make([][]int, l)
	rs := make([][]int, l)
	for i := 0; i < l; i++ {
		if t[i], err = r.set(fmt.Sprintf("slot %d transmitters", i), f.N); err != nil {
			return nil, err
		}
		if rs[i], err = r.set(fmt.Sprintf("slot %d receivers", i), f.N); err != nil {
			return nil, err
		}
	}
	sched, err := core.New(f.N, t, rs)
	if err != nil {
		return nil, fmt.Errorf("wire: decoded schedule invalid: %w", err)
	}
	f.Schedule = sched

	num, err := r.ratPart("throughput numerator")
	if err != nil {
		return nil, err
	}
	den, err := r.ratPart("throughput denominator")
	if err != nil {
		return nil, err
	}
	if den.Sign() == 0 {
		return nil, fmt.Errorf("wire: zero throughput denominator")
	}
	f.AvgThroughput = new(big.Rat).SetFrac(num, den)
	// SetFrac reduces; an unreduced fraction on the wire would decode
	// fine but re-encode differently, so it is non-canonical input.
	if f.AvgThroughput.Num().Cmp(num) != 0 || f.AvgThroughput.Denom().Cmp(den) != 0 {
		return nil, fmt.Errorf("wire: unreduced throughput %s/%s (non-canonical)", num, den)
	}
	afBits, err := r.bytes("active fraction", 8)
	if err != nil {
		return nil, err
	}
	f.ActiveFraction = math.Float64frombits(binary.LittleEndian.Uint64(afBits))
	if f.ActiveFraction < 0 || f.ActiveFraction > 1 || math.IsNaN(f.ActiveFraction) {
		return nil, fmt.Errorf("wire: active fraction %v outside [0, 1]", f.ActiveFraction)
	}
	if r.off != crcStart {
		return nil, fmt.Errorf("wire: %d trailing payload bytes", crcStart-r.off)
	}
	// The canonical-form check: a frame that decodes must re-encode to
	// the exact bytes it came from, or its digest would not be a stable
	// identity. Cheap relative to the schedule construction above.
	if err := f.validate(); err != nil {
		return nil, err
	}
	return f, nil
}

// set reads a delta-varint element list whose members must lie in [0, n).
func (r *reader) set(what string, n int) ([]int, error) {
	count, err := r.intIn(what+" count", n)
	if err != nil {
		return nil, err
	}
	// Each element costs at least one encoded byte; a count beyond the
	// remaining bytes is structurally impossible, so reject it before
	// allocating.
	if count > r.remaining() {
		return nil, fmt.Errorf("wire: %s count %d exceeds %d remaining bytes", what, count, r.remaining())
	}
	elems := make([]int, count)
	prev := -1
	for i := range elems {
		gap, err := r.uvarint(what)
		if err != nil {
			return nil, err
		}
		e := uint64(prev) + 1 + gap
		if i == 0 {
			e = gap
		}
		if e >= uint64(n) {
			return nil, fmt.Errorf("wire: %s element %d outside [0, %d)", what, e, n)
		}
		elems[i] = int(e)
		prev = int(e)
	}
	return elems, nil
}

// ratPart reads one length-prefixed big-endian magnitude.
func (r *reader) ratPart(what string) (*big.Int, error) {
	n, err := r.intIn(what+" length", maxRatBytes)
	if err != nil {
		return nil, err
	}
	b, err := r.bytes(what, n)
	if err != nil {
		return nil, err
	}
	if n > 0 && b[0] == 0 {
		return nil, fmt.Errorf("wire: %s has a leading zero byte (non-canonical)", what)
	}
	return new(big.Int).SetBytes(b), nil
}

// Digest returns the lowercase-hex SHA-256 of an encoded frame, truncated
// to 128 bits. The encoding is canonical, so this is a stable identity
// for the frame's content across processes and platforms; the serving
// tier uses it as the HTTP ETag.
func Digest(encoded []byte) string {
	sum := sha256.Sum256(encoded)
	return hex.EncodeToString(sum[:16])
}
