package daemon

// The per-connection session loop: admission, open/resume, the feed
// loop with throttling, budget enforcement and progress reporting, and
// the four ways a session ends (finish, detach, eviction, disconnect).

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"

	"treeclock"
	"treeclock/internal/trace"
)

// serveSession runs one session to completion on its connection.
//
// The frame that ends a session (result, detached, evicted or error)
// is written only after runSession has returned: by then the session
// has given back its pool slot and its id, and its outcome is in the
// stats. A client that reconnects the moment it reads that frame —
// to resume a detached session, or to query the stats — therefore
// never finds the old session still active.
func (s *Server) serveSession(conn net.Conn, br *bufio.Reader, bw *bufio.Writer, spec *openSpec) {
	if typ, payload := s.runSession(br, bw, spec); typ != 0 {
		writeFrame(bw, typ, payload)
	}
}

// failFrame is a terminal error frame.
func failFrame(format string, args ...any) (byte, []byte) {
	return frameError, []byte(fmt.Sprintf(format, args...))
}

// runSession admits, opens and drives one session, and returns the
// terminal frame for serveSession to write (type 0 when the client is
// gone and there is nothing to write).
func (s *Server) runSession(br *bufio.Reader, bw *bufio.Writer, spec *openSpec) (byte, []byte) {
	if !sessionIDOK(spec.ID) {
		return failFrame("tcraced: bad session id %q (want 1-128 chars of [A-Za-z0-9._-], not starting with '.' or '-')", spec.ID)
	}

	// Admission: wait for a pool slot, aborting if the daemon shuts
	// down first (a severed connection alone would strand the handler
	// in the queue).
	select {
	case s.slots <- struct{}{}:
	default:
		s.cfg.Logf("session %s: waiting for a pool slot", spec.ID)
		select {
		case s.slots <- struct{}{}:
		case <-s.quit:
			return 0, nil
		}
	}
	defer func() { <-s.slots }()

	// One live session per id: concurrent sessions would race on the
	// spool checkpoint.
	s.mu.Lock()
	if _, dup := s.live[spec.ID]; dup {
		s.mu.Unlock()
		return failFrame("tcraced: session %q is already active", spec.ID)
	}
	s.live[spec.ID] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.live, spec.ID)
		s.mu.Unlock()
	}()

	spool := filepath.Join(s.cfg.SpoolDir, spec.ID+".ckpt")
	opts := []treeclock.StreamOption{
		treeclock.WithCheckpoint(s.cfg.CheckpointEvery, treeclock.FileCheckpointSink{Path: spool}),
	}
	if spec.Workers > 1 {
		opts = append(opts, treeclock.WithWorkers(spec.Workers))
	}
	if spec.FlatWeak {
		opts = append(opts, treeclock.WithFlatWeakClocks())
	}
	if spec.NoAnalysis {
		opts = append(opts, treeclock.StreamNoAnalysis())
	}
	if spec.SlotReclaim {
		opts = append(opts, treeclock.WithSlotReclaim())
	}
	if spec.SummaryCap > 0 {
		opts = append(opts, treeclock.WithSummaryCap(spec.SummaryCap))
	}
	if spec.Resume {
		data, err := os.ReadFile(spool)
		if err != nil {
			return failFrame("tcraced: session %q has no resumable checkpoint: %v", spec.ID, err)
		}
		opts = append(opts, treeclock.ResumeFrom(bytes.NewReader(data)))
	}
	sess, err := treeclock.Open(spec.Engine, opts...)
	if err != nil {
		return failFrame("%v", err)
	}
	defer sess.Close()
	pos, err := sess.Resumed()
	if err != nil {
		return failFrame("%v", err)
	}
	payload, err := encodePos(pos, "")
	if err != nil {
		return failFrame("tcraced: %v", err)
	}
	// Register before acknowledging, so a stats query issued right
	// after the client sees the opened frame finds the session.
	s.stats.sessionOpened(spec, pos)
	if writeFrame(bw, frameOpened, payload) != nil {
		s.stats.sessionClosed(spec.ID, "disconnected")
		return 0, nil
	}
	s.cfg.Logf("session %s: open engine=%s workers=%d resume=%v pos=%d", spec.ID, spec.Engine, spec.Workers, spec.Resume, pos)
	outcome, typ, reply := s.feedLoop(br, bw, spec, sess, pos)
	s.stats.sessionClosed(spec.ID, outcome)
	s.cfg.Logf("session %s: %s at %d events", spec.ID, outcome, sess.Events())
	return typ, reply
}

// feedLoop drives one opened session until a terminal outcome. It
// returns the stats-table disposition ("finished", "detached",
// "evicted", "failed", "disconnected") and the terminal frame, which
// the caller writes once the session is released.
func (s *Server) feedLoop(br *bufio.Reader, bw *bufio.Writer, spec *openSpec, sess *treeclock.Session, pos uint64) (string, byte, []byte) {
	spool := filepath.Join(s.cfg.SpoolDir, spec.ID+".ckpt")
	fail := func(format string, args ...any) (string, byte, []byte) {
		typ, payload := failFrame(format, args...)
		return "failed", typ, payload
	}
	// courtesy snapshots the session to its spool so the client (or the
	// next daemon) can resume; best-effort on abnormal exits.
	courtesy := func() {
		var buf bytes.Buffer
		if sess.Snapshot(&buf) == nil {
			if wc, err := (treeclock.FileCheckpointSink{Path: spool}).Create(sess.Events()); err == nil {
				if _, err := wc.Write(buf.Bytes()); err == nil {
					wc.Close()
				} else {
					wc.Close()
				}
			}
		}
	}

	throttle := newThrottle(s.cfg.MaxEventsPerSec, s.cfg.Now, s.cfg.Sleep)
	nextProgress := nextMultiple(pos, s.cfg.ProgressEvery)
	nextMem := nextMultiple(pos, s.cfg.MemCheckEvery)
	var retained uint64
	var buf []trace.Event

	for {
		typ, payload, err := readFrame(br)
		if err != nil {
			// The client vanished (or the daemon is closing): leave a
			// resumable frontier behind.
			courtesy()
			return "disconnected", 0, nil
		}
		switch typ {
		case frameEvents:
			events, err := decodeEvents(payload, buf)
			if err != nil {
				courtesy()
				return fail("tcraced: %v", err)
			}
			buf = events[:0]
			throttle.pace(len(events))
			if err := sess.Feed(events); err != nil {
				courtesy()
				return fail("%v", err)
			}
			n := sess.Events()
			s.stats.sessionFed(spec.ID, n, uint64(len(events)))
			if n >= nextMem {
				nextMem = nextMultiple(n, s.cfg.MemCheckEvery)
				if ms, ok := sess.Mem(); ok {
					retained = ms.RetainedBytes
					s.stats.sessionRetained(spec.ID, retained)
					if s.cfg.MaxRetainedBytes > 0 && retained > s.cfg.MaxRetainedBytes {
						return s.evict(spec, sess, retained)
					}
				}
			}
			if n >= nextProgress {
				nextProgress = nextMultiple(n, s.cfg.ProgressEvery)
				if writeFrame(bw, frameProgress, encodeProgress(n, retained)) != nil {
					courtesy()
					return "disconnected", 0, nil
				}
			}
		case frameFinish:
			res, err := sess.Result()
			if err != nil {
				courtesy()
				return fail("%v", err)
			}
			payload, err := encodeResult(res)
			if err != nil {
				return fail("tcraced: %v", err)
			}
			// The trace is fully analyzed; the spool frontier has
			// nothing left to resume. The session counts as finished
			// even if the result frame then fails to reach the client.
			os.Remove(spool)
			s.stats.sessionFinished(spec.ID, res.Summary.Total)
			return "finished", frameResult, payload
		case frameDetach:
			var snap bytes.Buffer
			if err := sess.Snapshot(&snap); err != nil {
				return fail("%v", err)
			}
			wc, err := (treeclock.FileCheckpointSink{Path: spool}).Create(sess.Events())
			if err == nil {
				_, werr := wc.Write(snap.Bytes())
				cerr := wc.Close()
				if werr != nil {
					err = werr
				} else {
					err = cerr
				}
			}
			if err != nil {
				return fail("tcraced: spooling detach checkpoint: %v", err)
			}
			payload, err := encodePos(sess.Events(), "")
			if err != nil {
				return fail("tcraced: %v", err)
			}
			return "detached", frameDetached, payload
		default:
			courtesy()
			return fail("tcraced: unexpected frame %q in session", typ)
		}
	}
}

// evict ends an over-budget session: final checkpoint to the spool,
// then an evicted frame naming the resumable position and the reason,
// and disconnection. The client resumes later (here or on another
// daemon sharing the spool) and re-feeds from the reported position.
// Results are as for feedLoop.
func (s *Server) evict(spec *openSpec, sess *treeclock.Session, retained uint64) (string, byte, []byte) {
	spool := filepath.Join(s.cfg.SpoolDir, spec.ID+".ckpt")
	var snap bytes.Buffer
	if err := sess.Snapshot(&snap); err != nil {
		typ, payload := failFrame("tcraced: evicting session %q: %v", spec.ID, err)
		return "failed", typ, payload
	}
	wc, err := (treeclock.FileCheckpointSink{Path: spool}).Create(sess.Events())
	if err == nil {
		_, werr := wc.Write(snap.Bytes())
		cerr := wc.Close()
		if werr != nil {
			err = werr
		} else {
			err = cerr
		}
	}
	if err != nil {
		typ, payload := failFrame("tcraced: spooling eviction checkpoint: %v", err)
		return "failed", typ, payload
	}
	reason := fmt.Sprintf("retained %d bytes over budget %d", retained, s.cfg.MaxRetainedBytes)
	payload, perr := encodePos(sess.Events(), reason)
	if perr != nil {
		return "failed", 0, nil
	}
	s.cfg.Logf("session %s: evicted (%s)", spec.ID, reason)
	return "evicted", frameEvicted, payload
}

// encodeProgress marshals a progress notice: absolute event position
// and last-sampled retained bytes, bare varints (hot path).
func encodeProgress(events, retained uint64) []byte {
	buf := make([]byte, 0, 20)
	buf = binary.AppendUvarint(buf, events)
	buf = binary.AppendUvarint(buf, retained)
	return buf
}

// decodeProgress unmarshals a progress notice.
func decodeProgress(payload []byte) (events, retained uint64, err error) {
	var k int
	events, k = binary.Uvarint(payload)
	if k <= 0 {
		return 0, 0, fmt.Errorf("daemon: progress frame: bad event count")
	}
	retained, k = binary.Uvarint(payload[k:])
	if k <= 0 {
		return 0, 0, fmt.Errorf("daemon: progress frame: bad retained count")
	}
	return events, retained, nil
}

// nextMultiple returns the first multiple of step strictly above pos
// (pos+1 when step is 0 never happens: callers default step).
func nextMultiple(pos, step uint64) uint64 {
	if step == 0 {
		step = 1
	}
	return (pos/step + 1) * step
}

// throttle is a token bucket over the injected clock: pace(n) spends n
// tokens, sleeping for the refill when the bucket runs dry. The bucket
// caps at one second of budget, so a quiet session can burst briefly
// but sustained feeding converges to the configured rate.
type throttle struct {
	rate   float64 // tokens (events) per second; 0 disables
	tokens float64
	last   time.Time
	now    func() time.Time
	sleep  func(time.Duration)
}

func newThrottle(rate float64, now func() time.Time, sleep func(time.Duration)) *throttle {
	t := &throttle{rate: rate, now: now, sleep: sleep}
	if rate > 0 {
		t.tokens = rate // one second of initial burst
		t.last = now()
	}
	return t
}

// pace blocks until n events fit the budget.
func (t *throttle) pace(n int) {
	if t.rate <= 0 || n <= 0 {
		return
	}
	now := t.now()
	t.tokens += now.Sub(t.last).Seconds() * t.rate
	t.last = now
	if t.tokens > t.rate {
		t.tokens = t.rate
	}
	t.tokens -= float64(n)
	if t.tokens < 0 {
		deficit := -t.tokens / t.rate // seconds until the bucket refills
		t.sleep(time.Duration(deficit * float64(time.Second)))
		t.last = t.now()
		t.tokens = 0
	}
}
