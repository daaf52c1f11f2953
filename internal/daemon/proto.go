// The tcraced wire protocol: length-prefixed binary frames over a
// byte stream (TCP or a Unix socket).
//
// A connection opens with a 5-byte preamble — "TCRD" plus a protocol
// version byte — written by the client and verified by the server.
// Every subsequent message is one frame:
//
//	uint32(big-endian payload length) | type byte | payload
//
// The length covers the type byte plus the payload and is bounded by
// maxFrame, so a corrupt or hostile length fails fast instead of
// forcing a giant allocation. Frame types are single bytes: uppercase
// letters flow client → server, lowercase server → client.
//
// Structured payloads — the open request, the final result, position
// notices — reuse the internal/ckpt section format (versioned,
// CRC-checked), each visited by one ckpt.Codec function for both
// directions, so the daemon's wire encoding inherits the same
// defensive decoding as checkpoints. Event batches are the hot path and use
// a bare varint encoding instead: a count followed by (kind, thread,
// operand) triples per event.
package daemon

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"treeclock"
	"treeclock/internal/ckpt"
	"treeclock/internal/trace"
	"treeclock/internal/vt"
)

// connMagic is the connection preamble: protocol magic plus version.
const connMagic = "TCRD\x01"

// maxFrame bounds one frame's payload (type byte included). Event
// frames carry at most a few thousand events, results a bounded
// sample set and one vector per thread; 4 MiB leaves generous
// headroom while keeping a corrupt length harmless.
const maxFrame = 4 << 20

// maxEventsPerFrame bounds the event count of one events frame.
const maxEventsPerFrame = 1 << 20

// Frame types, client → server.
const (
	frameOpen   = 'O' // open (or resume) a session: openSpec payload
	frameEvents = 'E' // one batch of trace events
	frameFinish = 'F' // end of trace: assemble and return the result
	frameDetach = 'D' // checkpoint the session server-side and part
	frameStats  = 'S' // request the daemon statistics snapshot
)

// Frame types, server → client.
const (
	frameOpened   = 'o' // session accepted: position to feed from
	frameProgress = 'p' // periodic events/retained-bytes notice
	frameResult   = 'r' // final StreamResult (terminal)
	frameEvicted  = 'v' // budget eviction: resumable position (terminal)
	frameError    = 'x' // failure, UTF-8 text (terminal)
	frameStatsRep = 's' // statistics snapshot, JSON
	frameDetached = 'd' // detach acknowledged: resumable position (terminal)
)

// writeFrame emits one frame and flushes it.
func writeFrame(w *bufio.Writer, typ byte, payload []byte) error {
	if len(payload)+1 > maxFrame {
		return fmt.Errorf("daemon: frame %q payload %d exceeds limit %d", typ, len(payload), maxFrame)
	}
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(payload)+1))
	hdr[4] = typ
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.Write(payload); err != nil {
		return err
	}
	return w.Flush()
}

// readFrame reads one frame, enforcing the size bound.
func readFrame(r *bufio.Reader) (typ byte, payload []byte, err error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n < 1 || n > maxFrame {
		return 0, nil, fmt.Errorf("daemon: frame length %d out of range (max %d)", n, maxFrame)
	}
	// The length is only a claim: a large frame is read in chunks that
	// at most double what already arrived, so a stream that ends early
	// fails before the claimed size is allocated.
	size := int(n)
	buf := make([]byte, min(size, 1<<16))
	for off := 0; ; {
		if _, err := io.ReadFull(r, buf[off:]); err != nil {
			return 0, nil, err
		}
		if off = len(buf); off == size {
			return buf[0], buf[1:], nil
		}
		buf = append(buf, make([]byte, min(size-off, off))...)
	}
}

// openSpec is the session-open request: which engine to run, under
// which options, and whether to resume the identified session from its
// server-side checkpoint. The option subset is exactly what a
// push-mode Session accepts — decode-side options (format, pipeline,
// validation, interning) stay with the client, which feeds decoded
// events.
type openSpec struct {
	// ID names the session: the spool checkpoint key and the stats
	// table entry. Sanitized server-side (sessionIDOK).
	ID string
	// Engine is the registry name ("hb-tree", "wcp-vc", ...).
	Engine string
	// Workers selects the sharded runtime when > 1.
	Workers int
	// FlatWeak selects the flat weak-clock transport (wcp engines).
	FlatWeak bool
	// NoAnalysis disables race reporting (timing/metadata only).
	NoAnalysis bool
	// SlotReclaim enables thread-slot reclamation.
	SlotReclaim bool
	// SummaryCap caps retained rule-(a) summary vectors (wcp engines).
	SummaryCap int
	// Resume restores the session from its server-side checkpoint; the
	// opened reply carries the position to re-feed from.
	Resume bool
}

// openCodec visits an open request.
func openCodec(c *ckpt.Codec, spec *openSpec) error {
	c.Header()
	c.Begin("open")
	c.String(&spec.ID)
	c.String(&spec.Engine)
	c.Int(&spec.Workers)
	c.Bool(&spec.FlatWeak)
	c.Bool(&spec.NoAnalysis)
	c.Bool(&spec.SlotReclaim)
	c.Int(&spec.SummaryCap)
	c.Bool(&spec.Resume)
	c.End()
	return c.Err()
}

// resultCodec visits a final StreamResult — every field, in
// declaration order, so the daemon's reply is a faithful transcript of
// the library's answer (the differential suite compares these bytes).
// A load reconstructs the exact shape the library produces (nil sample
// slice when empty, per-thread timestamp vectors, optional MemStats).
func resultCodec(c *ckpt.Codec, res *treeclock.StreamResult) error {
	c.Header()
	c.Begin("result")
	c.String(&res.Engine)
	c.String(&res.Meta.Name)
	c.Int(&res.Meta.Threads)
	c.Int(&res.Meta.Locks)
	c.Int(&res.Meta.Vars)
	c.U64(&res.Events)
	c.U64(&res.Summary.Total)
	c.U64(&res.Summary.WriteWrite)
	c.U64(&res.Summary.WriteRead)
	c.U64(&res.Summary.ReadWrite)
	c.Int(&res.Summary.Vars)
	ckpt.Slice(c, &res.Samples, 6)
	for i := range res.Samples {
		p := &res.Samples[i]
		c.U8((*uint8)(&p.Kind))
		c.Int32(&p.Var)
		c.Int32((*int32)(&p.Prior.T))
		c.Int32((*int32)(&p.Prior.Clk))
		c.Int32((*int32)(&p.Access.T))
		c.Int32((*int32)(&p.Access.Clk))
	}
	c.End()
	c.Begin("timestamps")
	n := len(res.Timestamps)
	c.Len(&n, 1)
	// Each vector costs a 24-byte slice header however short its wire
	// form, so the count is also bounded by a third of the section:
	// decoding stays within 8× the payload. A real result holds k
	// vectors of k entries, at least k(k+1) bytes, so only k = 1 needs
	// the slack.
	if !c.Check(n <= 1 || 3*n <= c.Remaining(), "timestamp count %d exceeds payload", n) {
		return c.Err()
	}
	if c.Loading() {
		res.Timestamps = make([]treeclock.Vector, n)
	}
	for i := range res.Timestamps {
		v := &res.Timestamps[i]
		m := len(*v)
		c.Len(&m, 1)
		if c.Loading() && c.Err() == nil {
			*v = make(treeclock.Vector, m)
		}
		for j := range *v {
			c.Int32((*int32)(&(*v)[j]))
		}
	}
	c.End()
	c.Begin("mem")
	hasMem := res.Mem != nil
	c.Bool(&hasMem)
	if hasMem {
		if c.Loading() {
			res.Mem = &treeclock.MemStats{}
		}
		m := res.Mem
		c.Int(&m.HistEntries)
		c.Int(&m.PeakLockHist)
		c.U64(&m.DroppedEntries)
		c.U64(&m.RetainedBytes)
		c.Int(&m.SummaryVectors)
		c.Int(&m.FreeVectors)
		c.U64(&m.SummaryEvictions)
		c.Int(&m.ThreadSlots)
		c.Int(&m.FreeSlots)
		c.U64(&m.RetiredSlots)
		c.U64(&m.ReusedSlots)
		c.Int(&m.InternedNames)
		c.U64(&m.InternEvictions)
	}
	c.End()
	return c.Err()
}

// posNotice is a position notice (opened, detached, evicted — the
// reason string is empty except for evictions).
type posNotice struct {
	pos    uint64
	reason string
}

// posCodec visits a position notice.
func posCodec(c *ckpt.Codec, n *posNotice) error {
	c.Header()
	c.Begin("pos")
	c.U64(&n.pos)
	c.String(&n.reason)
	c.End()
	return c.Err()
}

// encode marshals one structured payload through its codec.
func encode[T any](visit func(*ckpt.Codec, *T) error, v *T) ([]byte, error) {
	var buf bytes.Buffer
	if err := visit(ckpt.NewEnc(&buf).Codec(), v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// decode unmarshals one structured payload through its codec.
func decode[T any](visit func(*ckpt.Codec, *T) error, payload []byte) (*T, error) {
	v := new(T)
	if err := visit(ckpt.NewDec(bytes.NewReader(payload)).Codec(), v); err != nil {
		return nil, err
	}
	return v, nil
}

// encodeOpen marshals an open request into one frame payload.
func encodeOpen(spec *openSpec) ([]byte, error) { return encode(openCodec, spec) }

// decodeOpen unmarshals an open request frame payload.
func decodeOpen(payload []byte) (*openSpec, error) { return decode(openCodec, payload) }

// encodeResult marshals a StreamResult into one frame payload.
func encodeResult(res *treeclock.StreamResult) ([]byte, error) { return encode(resultCodec, res) }

// decodeResult unmarshals a result frame payload.
func decodeResult(payload []byte) (*treeclock.StreamResult, error) {
	return decode(resultCodec, payload)
}

// encodePos marshals a position notice into one frame payload.
func encodePos(pos uint64, reason string) ([]byte, error) {
	return encode(posCodec, &posNotice{pos, reason})
}

// decodePos unmarshals a position notice frame payload.
func decodePos(payload []byte) (uint64, string, error) {
	n, err := decode(posCodec, payload)
	if err != nil {
		return 0, "", err
	}
	return n.pos, n.reason, nil
}

// encodeEvents appends an event batch in the bare hot-path encoding:
// uvarint count, then per event a kind byte, uvarint thread and
// uvarint operand (operands are non-negative identifiers, stored as
// their uint32 pattern to keep Fork/Join thread ids compact).
func encodeEvents(dst []byte, events []trace.Event) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(events)))
	for _, ev := range events {
		dst = append(dst, byte(ev.Kind))
		dst = binary.AppendUvarint(dst, uint64(uint32(ev.T)))
		dst = binary.AppendUvarint(dst, uint64(uint32(ev.Obj)))
	}
	return dst
}

// decodeEvents decodes an events frame payload into buf (grown as
// needed), validating kinds and identifier ranges.
func decodeEvents(payload []byte, buf []trace.Event) ([]trace.Event, error) {
	n, k := binary.Uvarint(payload)
	if k <= 0 {
		return nil, fmt.Errorf("daemon: events frame: bad count")
	}
	payload = payload[k:]
	if n > maxEventsPerFrame {
		return nil, fmt.Errorf("daemon: events frame: count %d exceeds limit %d", n, maxEventsPerFrame)
	}
	// An event takes at least 3 bytes, so reject a count the payload
	// cannot hold before buf grows to it.
	if n > uint64(len(payload))/3 {
		return nil, fmt.Errorf("daemon: events frame: count %d exceeds the %d-byte payload", n, len(payload))
	}
	if uint64(cap(buf)) < n {
		buf = make([]trace.Event, n)
	}
	buf = buf[:n]
	for i := range buf {
		if len(payload) == 0 {
			return nil, fmt.Errorf("daemon: events frame: truncated at event %d of %d", i, n)
		}
		kind := trace.Kind(payload[0])
		if kind > trace.Join {
			return nil, fmt.Errorf("daemon: events frame: bad event kind %d", kind)
		}
		payload = payload[1:]
		t, k := binary.Uvarint(payload)
		if k <= 0 || t > 1<<31-1 {
			return nil, fmt.Errorf("daemon: events frame: bad thread id at event %d", i)
		}
		payload = payload[k:]
		obj, k := binary.Uvarint(payload)
		if k <= 0 || obj > 1<<32-1 {
			return nil, fmt.Errorf("daemon: events frame: bad operand at event %d", i)
		}
		payload = payload[k:]
		buf[i] = trace.Event{T: vt.TID(t), Obj: int32(uint32(obj)), Kind: kind}
	}
	if len(payload) != 0 {
		return nil, fmt.Errorf("daemon: events frame: %d trailing bytes", len(payload))
	}
	return buf, nil
}
