// Package ckpt implements the wire format shared by every checkpoint
// producer and consumer in this repository: a versioned preamble
// followed by named, length-prefixed, CRC-checked sections.
//
// The unit of framing is the section. A section is
//
//	uvarint(len(name)) name uvarint(len(payload)) payload crc32(name+payload)
//
// with the CRC stored as a fixed little-endian uint32 (IEEE
// polynomial). Sections are self-delimiting, so independent Enc/Dec
// instances over the same stream compose: the engine runtime, each
// semantics plugin and each trace source writes its own sections with
// its own encoder, and a reader consumes them in the same order with
// any number of decoders. Nothing is buffered across sections.
//
// Decoding is defensive end to end: every failure — short reads, CRC
// mismatches, section-name mismatches, leftover payload bytes,
// out-of-range counts — surfaces as an error wrapping ErrCorrupt,
// never a panic, and payloads are read incrementally so a corrupt
// length cannot trigger a huge allocation. Both Enc and Dec are
// sticky: after the first error every later call is a no-op, so call
// sites check Err once per section.
package ckpt

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
)

// ErrCorrupt is the sentinel wrapped by every decode failure: a
// truncated stream, a CRC mismatch, an unexpected section, or any
// out-of-range value. Callers distinguish "the checkpoint is bad"
// from plain I/O trouble with errors.Is(err, ErrCorrupt).
var ErrCorrupt = errors.New("corrupt checkpoint")

// Version is the current checkpoint format version, written by
// Enc.Header and required by Dec.Header. Any change to what a section
// contains is a format change and must bump it.
const Version = 2

const magic = "TCKP"

// maxSliceCap bounds every count, length and capacity Dec hands out.
// It is far above anything a real checkpoint contains (identifier
// spaces, not trace length) while keeping a corrupt value from
// forcing a multi-gigabyte allocation before the CRC is even checked.
const maxSliceCap = 1 << 26

// maxNameLen bounds section names.
const maxNameLen = 1 << 8

// Enc writes checkpoint sections to an io.Writer. Primitives append
// to the open section's payload; End frames and flushes it. Enc is
// sticky: the first write error latches and everything after is a
// no-op.
type Enc struct {
	w    io.Writer
	name string
	open bool
	base int // payload offset in buf: room reserved for the frame header
	buf  []byte
	err  error
	c    Codec
}

// NewEnc returns an encoder over w.
func NewEnc(w io.Writer) *Enc {
	e := &Enc{w: w}
	e.c.e, e.c.f = e, e
	return e
}

// Codec returns the saving codec over e.
func (e *Enc) Codec() *Codec { return &e.c }

// Err returns the first error encountered.
func (e *Enc) Err() error { return e.err }

func (e *Enc) fail(err error) {
	if e.err == nil {
		e.err = err
	}
}

// Header writes the checkpoint preamble: magic plus format version.
func (e *Enc) Header() {
	if e.err != nil {
		return
	}
	var h [len(magic) + 1]byte
	copy(h[:], magic)
	h[len(magic)] = Version
	if _, err := e.w.Write(h[:]); err != nil {
		e.fail(fmt.Errorf("ckpt: writing header: %w", err))
	}
}

// Begin opens a section. Sections do not nest. The payload is built
// after room for the longest possible frame header, so End frames the
// section in place and writes it with one Write.
func (e *Enc) Begin(name string) {
	if e.err != nil {
		return
	}
	if e.open {
		e.fail(fmt.Errorf("ckpt: Begin(%q) inside open section %q", name, e.name))
		return
	}
	e.name, e.open = name, true
	e.base = 2*binary.MaxVarintLen64 + len(name)
	e.buf = slices.Grow(e.buf[:0], e.base)[:e.base]
}

// End frames the open section and writes it out.
func (e *Enc) End() {
	if e.err != nil {
		return
	}
	if !e.open {
		e.fail(errors.New("ckpt: End outside a section"))
		return
	}
	e.open = false
	payload := e.buf[e.base:]
	var lens [2 * binary.MaxVarintLen64]byte
	nl := binary.PutUvarint(lens[:], uint64(len(e.name)))
	pl := binary.PutUvarint(lens[nl:], uint64(len(payload)))
	start := e.base - nl - len(e.name) - pl
	name := e.buf[start+nl : start+nl+len(e.name)]
	copy(e.buf[start:], lens[:nl])
	copy(name, e.name)
	copy(e.buf[start+nl+len(e.name):], lens[nl:nl+pl])
	crc := crc32.Update(crc32.ChecksumIEEE(name), crc32.IEEETable, payload)
	e.buf = binary.LittleEndian.AppendUint32(e.buf, crc)
	if _, err := e.w.Write(e.buf[start:]); err != nil {
		e.fail(fmt.Errorf("ckpt: writing section %q: %w", e.name, err))
	}
}

// put adopts buf — the payload with one primitive appended — when a
// section is open, latching the misuse error when none is.
func (e *Enc) put(buf []byte) {
	if e.err != nil {
		return
	}
	if !e.open {
		e.fail(errors.New("ckpt: write outside a section"))
		return
	}
	e.buf = buf
}

// U8 appends one byte.
func (e *Enc) U8(v uint8) { e.put(append(e.buf, v)) }

// U32 appends a fixed-width little-endian uint32.
func (e *Enc) U32(v uint32) { e.put(binary.LittleEndian.AppendUint32(e.buf, v)) }

// U64 appends a fixed-width little-endian uint64.
func (e *Enc) U64(v uint64) { e.put(binary.LittleEndian.AppendUint64(e.buf, v)) }

// Uvarint appends an unsigned varint.
func (e *Enc) Uvarint(v uint64) { e.put(binary.AppendUvarint(e.buf, v)) }

// Svarint appends a zig-zag signed varint.
func (e *Enc) Svarint(v int64) { e.put(binary.AppendVarint(e.buf, v)) }

// Int appends a signed integer (zig-zag varint).
func (e *Enc) Int(v int) { e.Svarint(int64(v)) }

// Int32 appends a signed 32-bit integer (zig-zag varint).
func (e *Enc) Int32(v int32) { e.Svarint(int64(v)) }

// Bool appends a boolean as one byte.
func (e *Enc) Bool(v bool) {
	var b uint8
	if v {
		b = 1
	}
	e.U8(b)
}

// Bytes appends a length-prefixed byte string.
func (e *Enc) Bytes(b []byte) { e.put(append(binary.AppendUvarint(e.buf, uint64(len(b))), b...)) }

// String appends a length-prefixed string.
func (e *Enc) String(s string) { e.put(append(binary.AppendUvarint(e.buf, uint64(len(s))), s...)) }

// Dec reads checkpoint sections from an io.Reader, mirroring Enc.
// Begin reads, CRC-checks and buffers one whole section; primitives
// then decode from the buffered payload and End requires it to be
// fully consumed. Dec is sticky like Enc.
type Dec struct {
	r    io.Reader
	name string
	open bool
	buf  []byte
	pos  int
	err  error
	c    Codec
}

// NewDec returns a decoder over r.
func NewDec(r io.Reader) *Dec {
	d := &Dec{r: r}
	d.c.d, d.c.f = d, d
	return d
}

// Codec returns the loading codec over d.
func (d *Dec) Codec() *Codec { return &d.c }

// Err returns the first error encountered.
func (d *Dec) Err() error { return d.err }

func (d *Dec) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// corrupt latches a decoding failure wrapping ErrCorrupt.
func (d *Dec) corrupt(format string, args ...any) {
	args = append(args, ErrCorrupt)
	d.fail(fmt.Errorf("ckpt: "+format+": %w", args...))
}

// Corruptf lets callers latch a semantic validation failure — a
// CRC-valid payload that is nonetheless inconsistent (a dangling
// arena reference, mismatched lengths) — as a corruption error, so
// every rejection path reports through the one ErrCorrupt sentinel.
func (d *Dec) Corruptf(format string, args ...any) {
	d.corrupt(format, args...)
}

// Header reads and verifies the checkpoint preamble.
func (d *Dec) Header() {
	if d.err != nil {
		return
	}
	var h [len(magic) + 1]byte
	if _, err := io.ReadFull(d.r, h[:]); err != nil {
		d.corrupt("reading header: %v", err)
		return
	}
	if string(h[:len(magic)]) != magic {
		d.corrupt("bad magic %q (want %q)", h[:len(magic)], magic)
		return
	}
	if h[len(magic)] != Version {
		d.corrupt("unsupported format version %d (have %d)", h[len(magic)], Version)
	}
}

// rawUvarint decodes a varint straight from the underlying reader
// (section headers live outside any payload).
func (d *Dec) rawUvarint() uint64 {
	var v uint64
	var shift uint
	for i := 0; i < binary.MaxVarintLen64; i++ {
		var b [1]byte
		if _, err := io.ReadFull(d.r, b[:]); err != nil {
			d.corrupt("reading section header: %v", err)
			return 0
		}
		v |= uint64(b[0]&0x7f) << shift
		if b[0] < 0x80 {
			return v
		}
		shift += 7
	}
	d.corrupt("section header varint overflows 64 bits")
	return 0
}

// readPayload reads n payload bytes incrementally so a corrupt length
// fails on the short read rather than on a giant allocation.
func (d *Dec) readPayload(n uint64) []byte {
	const chunk = 1 << 16
	buf := d.buf[:0]
	for n > 0 {
		c := n
		if c > chunk {
			c = chunk
		}
		off := len(buf)
		buf = append(buf, make([]byte, c)...)
		if _, err := io.ReadFull(d.r, buf[off:]); err != nil {
			d.corrupt("reading section %q payload: %v", d.name, err)
			return nil
		}
		n -= c
	}
	return buf
}

// Begin reads the next section, verifies its CRC and requires its
// name to be exactly name.
func (d *Dec) Begin(name string) {
	if d.err != nil {
		return
	}
	if d.open {
		d.fail(fmt.Errorf("ckpt: Begin(%q) inside open section %q", name, d.name))
		return
	}
	nameLen := d.rawUvarint()
	if d.err != nil {
		return
	}
	if nameLen > maxNameLen {
		d.corrupt("section name length %d too large", nameLen)
		return
	}
	nb := make([]byte, nameLen)
	if _, err := io.ReadFull(d.r, nb); err != nil {
		d.corrupt("reading section name: %v", err)
		return
	}
	d.name = string(nb)
	payLen := d.rawUvarint()
	if d.err != nil {
		return
	}
	d.buf = d.readPayload(payLen)
	if d.err != nil {
		return
	}
	var c [4]byte
	if _, err := io.ReadFull(d.r, c[:]); err != nil {
		d.corrupt("reading section %q checksum: %v", d.name, err)
		return
	}
	crc := crc32.ChecksumIEEE(nb)
	crc = crc32.Update(crc, crc32.IEEETable, d.buf)
	if got := binary.LittleEndian.Uint32(c[:]); got != crc {
		d.corrupt("section %q checksum mismatch (stored %08x, computed %08x)", d.name, got, crc)
		return
	}
	if d.name != name {
		d.corrupt("unexpected section %q (want %q)", d.name, name)
		return
	}
	d.open, d.pos = true, 0
}

// End closes the current section, requiring its payload to be fully
// consumed.
func (d *Dec) End() {
	if d.err != nil {
		return
	}
	if !d.open {
		d.fail(errors.New("ckpt: End outside a section"))
		return
	}
	d.open = false
	if d.pos != len(d.buf) {
		d.corrupt("section %q has %d leftover bytes", d.name, len(d.buf)-d.pos)
	}
}

// remaining returns the unread payload bytes of the open section.
func (d *Dec) remaining() int { return len(d.buf) - d.pos }

func (d *Dec) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if !d.open {
		d.fail(errors.New("ckpt: read outside a section"))
		return nil
	}
	if d.remaining() < n {
		d.corrupt("section %q truncated (%d bytes left, need %d)", d.name, d.remaining(), n)
		return nil
	}
	b := d.buf[d.pos : d.pos+n]
	d.pos += n
	return b
}

// U8 reads one byte.
func (d *Dec) U8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U32 reads a fixed-width little-endian uint32.
func (d *Dec) U32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a fixed-width little-endian uint64.
func (d *Dec) U64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// Uvarint reads an unsigned varint.
func (d *Dec) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	if !d.open {
		d.fail(errors.New("ckpt: read outside a section"))
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.pos:])
	if n <= 0 {
		d.corrupt("section %q: bad varint", d.name)
		return 0
	}
	d.pos += n
	return v
}

// Svarint reads a zig-zag signed varint.
func (d *Dec) Svarint() int64 {
	if d.err != nil {
		return 0
	}
	if !d.open {
		d.fail(errors.New("ckpt: read outside a section"))
		return 0
	}
	v, n := binary.Varint(d.buf[d.pos:])
	if n <= 0 {
		d.corrupt("section %q: bad varint", d.name)
		return 0
	}
	d.pos += n
	return v
}

// Int reads a signed integer and range-checks it into int.
func (d *Dec) Int() int {
	v := d.Svarint()
	if int64(int(v)) != v {
		d.corrupt("section %q: integer %d out of range", d.name, v)
		return 0
	}
	return int(v)
}

// Int32 reads a signed 32-bit integer.
func (d *Dec) Int32() int32 {
	v := d.Svarint()
	if v < -1<<31 || v > 1<<31-1 {
		d.corrupt("section %q: int32 %d out of range", d.name, v)
		return 0
	}
	return int32(v)
}

// Bool reads a boolean.
func (d *Dec) Bool() bool {
	switch d.U8() {
	case 0:
		return false
	case 1:
		return true
	default:
		if d.err == nil {
			d.corrupt("section %q: bad boolean", d.name)
		}
		return false
	}
}

// Bytes reads a length-prefixed byte string (a fresh copy).
func (d *Dec) Bytes() []byte {
	n := d.Uvarint()
	if d.err != nil {
		return nil
	}
	if n > uint64(d.remaining()) {
		d.corrupt("section %q: byte string length %d exceeds payload", d.name, n)
		return nil
	}
	b := d.take(int(n))
	if b == nil {
		return nil
	}
	out := make([]byte, n)
	copy(out, b)
	return out
}

// String reads a length-prefixed string.
func (d *Dec) String() string {
	n := d.Uvarint()
	if d.err != nil {
		return ""
	}
	if n > uint64(d.remaining()) {
		d.corrupt("section %q: string length %d exceeds payload", d.name, n)
		return ""
	}
	return string(d.take(int(n)))
}

// Len reads an element count for a slice whose elements occupy at
// least elemSize payload bytes each, rejecting counts the remaining
// payload cannot possibly hold. Use it for every slice count so a
// corrupt length fails here instead of in make().
func (d *Dec) Len(elemSize int) int {
	if elemSize < 1 {
		elemSize = 1
	}
	n := d.Uvarint()
	if d.err != nil {
		return 0
	}
	if n > uint64(d.remaining())/uint64(elemSize) {
		d.corrupt("section %q: count %d exceeds payload", d.name, n)
		return 0
	}
	return int(n)
}

// Cap reads a slice capacity that must be at least n (the slice
// length) and within the global sanity bound. Capacities are
// checkpointed wherever memory accounting reads cap, so restored
// slices keep byte-identical Heap numbers.
func (d *Dec) Cap(n int) int {
	c := d.Uvarint()
	if d.err != nil {
		return 0
	}
	if c < uint64(n) || c > maxSliceCap {
		d.corrupt("section %q: capacity %d out of range (len %d)", d.name, c, n)
		return 0
	}
	return int(c)
}

// Count reads a bare count (not backed byte-for-byte by payload, e.g.
// a free-list length) bounded only by the global sanity limit.
func (d *Dec) Count() int {
	n := d.Uvarint()
	if d.err != nil {
		return 0
	}
	if n > maxSliceCap {
		d.corrupt("section %q: count %d out of range", d.name, n)
		return 0
	}
	return int(n)
}

// Codec visits checkpoint state in either direction: over an Enc each
// method writes the value its pointer holds, over a Dec it reads the
// value into the same place. A type visits each field once, so its save
// and load are one piece of code that cannot disagree on wire order or
// kinds. A load writes through every pointer it visits, so on a load
// error the object is partially overwritten and must be discarded.
// Code branches on Loading only for state not on the wire: allocations
// sized by a visited count, and fields derived from visited ones.
type Codec struct {
	e *Enc
	d *Dec
	f interface {
		Header()
		Begin(name string)
		End()
	}
}

// Loading reports whether the codec reads (true) or writes (false).
func (c *Codec) Loading() bool { return c.d != nil }

// Err returns the first error of the underlying Enc or Dec.
func (c *Codec) Err() error {
	if c.d != nil {
		return c.d.err
	}
	return c.e.err
}

// Header visits the checkpoint preamble.
func (c *Codec) Header() { c.f.Header() }

// Begin visits the start of the named section.
func (c *Codec) Begin(name string) { c.f.Begin(name) }

// End visits the end of the open section.
func (c *Codec) End() { c.f.End() }

// U8 visits one byte.
func (c *Codec) U8(p *uint8) {
	if c.d != nil {
		*p = c.d.U8()
	} else {
		c.e.U8(*p)
	}
}

// U64 visits a fixed-width little-endian uint64.
func (c *Codec) U64(p *uint64) {
	if c.d != nil {
		*p = c.d.U64()
	} else {
		c.e.U64(*p)
	}
}

// Uvarint visits an unsigned varint.
func (c *Codec) Uvarint(p *uint64) {
	if c.d != nil {
		*p = c.d.Uvarint()
	} else {
		c.e.Uvarint(*p)
	}
}

// Svarint visits a zig-zag signed varint.
func (c *Codec) Svarint(p *int64) {
	if c.d != nil {
		*p = c.d.Svarint()
	} else {
		c.e.Svarint(*p)
	}
}

// Int visits a signed integer (zig-zag varint, range-checked into int
// on load).
func (c *Codec) Int(p *int) {
	if c.d != nil {
		*p = c.d.Int()
	} else {
		c.e.Svarint(int64(*p))
	}
}

// Int32 visits a signed 32-bit integer (zig-zag varint, range-checked
// on load).
func (c *Codec) Int32(p *int32) {
	if c.d != nil {
		*p = c.d.Int32()
	} else {
		c.e.Svarint(int64(*p))
	}
}

// Int32In visits an Int32 id or link that must lie in [lo, hi).
func (c *Codec) Int32In(p *int32, lo, hi int32, what string) {
	if c.d == nil {
		c.e.Svarint(int64(*p))
		return
	}
	if *p = c.d.Int32(); c.d.err == nil && (*p < lo || *p >= hi) {
		c.d.corrupt("section %q: %s %d outside [%d, %d)", c.d.name, what, *p, lo, hi)
	}
}

// Bool visits a boolean as one byte.
func (c *Codec) Bool(p *bool) {
	if c.d != nil {
		*p = c.d.Bool()
	} else {
		c.e.Bool(*p)
	}
}

// String visits a length-prefixed string.
func (c *Codec) String(p *string) {
	if c.d != nil {
		*p = c.d.String()
	} else {
		c.e.String(*p)
	}
}

// Len visits the element count of a slice whose elements occupy at
// least elemSize payload bytes each (see Dec.Len).
func (c *Codec) Len(p *int, elemSize int) {
	if c.d != nil {
		*p = c.d.Len(elemSize)
	} else {
		c.e.Uvarint(uint64(*p))
	}
}

// Cap visits a slice capacity, which must be at least n on load (see
// Dec.Cap).
func (c *Codec) Cap(p *int, n int) {
	if c.d != nil {
		*p = c.d.Cap(n)
	} else {
		c.e.Uvarint(uint64(*p))
	}
}

// Count visits a bare count not backed byte for byte by payload (see
// Dec.Count).
func (c *Codec) Count(p *int) {
	if c.d != nil {
		*p = c.d.Count()
	} else {
		c.e.Uvarint(uint64(*p))
	}
}

// Remaining reports the unread payload bytes of the open section on
// load (0 on save), for bounds a per-element minimum cannot express.
func (c *Codec) Remaining() int {
	if c.d == nil {
		return 0
	}
	return c.d.remaining()
}

// Check validates a loaded value: on load a false ok latches a
// corruption error built from format and args. Saving never fails a
// check. It reports whether the codec is still error-free, so callers
// stop before a bad value sizes an allocation or indexes state. The
// args are boxed on every call, so checks inside per-element loops
// pass none.
func (c *Codec) Check(ok bool, format string, args ...any) bool {
	if !ok && c.d != nil {
		c.d.corrupt(format, args...)
	}
	return c.Err() == nil
}

// SaveLoader is the checkpoint shape vt.Clock fixes for every clock:
// Save into an Enc, Load from a Dec. Implementations route both onto
// their one codec method.
type SaveLoader interface {
	Save(*Enc)
	Load(*Dec)
}

// Clock visits a value of the SaveLoader shape; after an error it
// does nothing, so a load never reaches a clock it did not create.
func (c *Codec) Clock(v SaveLoader) {
	if c.Err() != nil {
		return
	}
	if c.d != nil {
		v.Load(c.d)
	} else {
		v.Save(c.e)
	}
}

// Slice visits a slice's length (elemSize bounds it as in Len) and
// reports whether the codec is error-free. A load replaces *s with a
// zeroed slice of that length (nil when zero) for the caller to visit.
func Slice[S ~[]E, E any](c *Codec, s *S, elemSize int) bool {
	n := len(*s)
	c.Len(&n, elemSize)
	if c.d != nil && c.d.err == nil {
		*s = nil
		if n > 0 {
			*s = make(S, n)
		}
	}
	return c.Err() == nil
}

// Map visits a map as a count followed by its entries in ascending key
// order, so identical state always encodes to identical bytes; entry
// visits one key and its value. On load *m is replaced by a fresh map,
// and keys must arrive strictly ascending, as a save writes them.
// elemSize bounds the count as in Len.
func Map[K cmp.Ordered, V any](c *Codec, m *map[K]V, elemSize int, entry func(c *Codec, k *K, v *V)) {
	var k, prev K // one pair per call: entry's pointers escape
	var v V
	if c.d == nil {
		keys := make([]K, 0, len(*m))
		for key := range *m {
			keys = append(keys, key)
		}
		slices.Sort(keys)
		c.e.Uvarint(uint64(len(keys)))
		for _, k = range keys {
			v = (*m)[k]
			entry(c, &k, &v)
		}
		return
	}
	n := c.d.Len(elemSize)
	if c.d.err != nil {
		return
	}
	*m = make(map[K]V, n)
	for i := 0; i < n; i++ {
		var zero V
		v = zero
		entry(c, &k, &v)
		if !c.Check(i == 0 || prev < k, "map keys out of order") {
			return
		}
		prev = k
		(*m)[k] = v
	}
}
