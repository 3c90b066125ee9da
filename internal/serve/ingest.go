package serve

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"repro/internal/tcp"
)

// Wire response lines (see the protocol comment in protocol.go).
type greetLine struct {
	OK        bool    `json:"ok"`
	ResumeID  *uint64 `json:"resume_id,omitempty"`
	ResumeSeq *uint64 `json:"resume_seq,omitempty"`
}

type ackLine struct {
	OK       bool   `json:"ok"`
	Ingested uint64 `json:"ingested"`
	Skipped  uint64 `json:"skipped"`
}

type errLine struct {
	Error string `json:"error"`
}

type eosLine struct {
	EOS       bool   `json:"eos"`
	Delivered uint64 `json:"delivered"`
}

// writeLine marshals one response line and flushes it.
func writeLine(w *bufio.Writer, v interface{}) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if _, err := w.Write(b); err != nil {
		return err
	}
	if err := w.WriteByte('\n'); err != nil {
		return err
	}
	return w.Flush()
}

// writeErr sends a protocol error line; the connection closes right after.
func writeErr(w *bufio.Writer, err error) {
	writeLine(w, errLine{Error: err.Error()}) //nolint:errcheck // conn is closing
}

// handleConn reads the role-declaring first line and dispatches. Shutdown
// lets a subscriber, marked to finish, read to its eos line and cuts the rest.
func (s *Server) handleConn(conn *tcp.Conn) {
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 4096), MaxFrameBytes+1)
	w := bufio.NewWriter(conn)
	if !sc.Scan() {
		return
	}
	conn.SetReadDeadline(time.Time{}) // an ingest session may idle between frames
	f, err := DecodeFrame(sc.Bytes())
	if err != nil {
		writeErr(w, err)
		return
	}
	switch f.Cmd {
	case "ingest":
		s.serveIngest(sc, w)
	case "subscribe":
		if s.srv.Keep(conn, true) {
			s.serveSubscribe(w, f.From)
		}
	default:
		writeErr(w, fmt.Errorf("%w: first line must declare {\"cmd\":\"ingest\"} or {\"cmd\":\"subscribe\"}", ErrMalformed))
	}
}

// serveIngest owns the single active ingest session: admission (one writer,
// stream still open), greeting with the resume mark, then the frame loop.
// Every reject path returns a typed error line BEFORE the frame touches the
// engine channel — a rejected frame provably leaves the engine untouched.
func (s *Server) serveIngest(sc *bufio.Scanner, w *bufio.Writer) {
	s.mu.Lock()
	if s.ingestActive {
		s.mu.Unlock()
		writeErr(w, ErrIngestBusy)
		return
	}
	if s.eosSeen || s.stopping {
		s.mu.Unlock()
		writeErr(w, ErrStreamClosed)
		return
	}
	s.ingestActive = true
	// Borrow the server's session: everything admitted so far is a recovery
	// replay to this writer.
	sess := &s.sess
	sess.resumeHWM, sess.skipped = sess.lastID, 0
	hwm := sess.lastID
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.ingestActive = false
		s.skipped += sess.skipped
		s.cond.Broadcast() // Shutdown may be waiting the session out
		s.mu.Unlock()
	}()
	if err := writeLine(w, greetLine{OK: true, ResumeID: &hwm}); err != nil {
		return
	}
	var ingested uint64
	for sc.Scan() {
		f, err := DecodeFrame(sc.Bytes())
		if err != nil {
			writeErr(w, err)
			return
		}
		switch f.Cmd {
		case "eos":
			// Ack first: once the channel closes the engine can finish, and
			// the owner's Shutdown then closes this connection under us.
			writeLine(w, ackLine{OK: true, Ingested: ingested, Skipped: sess.skipped}) //nolint:errcheck // conn is closing
			s.closeIngest()
			return
		case "":
			// A tuple frame.
		default:
			writeErr(w, fmt.Errorf("%w: unknown command %q", ErrMalformed, f.Cmd))
			return
		}
		t, err := sess.apply(f)
		if err != nil {
			writeErr(w, err)
			return
		}
		if t == nil {
			continue // recovery replay of an already-covered ID
		}
		select {
		case s.ch <- t:
		case <-s.done:
			writeErr(w, fmt.Errorf("serve: engine stopped"))
			return
		}
		s.hwm.Store(t.ID)
		ingested++
	}
	if err := sc.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			writeErr(w, ErrFrameTooLong)
		} else {
			writeErr(w, fmt.Errorf("%w: %v", ErrMalformed, err))
		}
	}
}

// batchMax bounds the deliveries a subscriber takes from the ring per lock
// acquisition, and so its batch and line buffers.
const batchMax = 256

// serveSubscribe attaches the connection to the delivery hub and streams
// result lines until end-of-stream, a lag disconnect, or a crash. Each pass
// takes every delivery already published (up to batchMax), appends their
// lines into one reused buffer and flushes once, so a subscriber that has
// caught up never has a line held back.
func (s *Server) serveSubscribe(w *bufio.Writer, from uint64) {
	sub, err := s.hub.subscribe(from)
	if err != nil {
		writeErr(w, err)
		return
	}
	defer s.hub.unsubscribe(sub)
	start := s.hub.start
	if err := writeLine(w, greetLine{OK: true, ResumeSeq: &start}); err != nil {
		return
	}
	batch := make([]Delivery, 0, batchMax)
	var lines []byte
	for {
		got, done, err := s.hub.nextBatch(sub, batch)
		if err != nil {
			writeErr(w, err)
			return
		}
		if done {
			writeLine(w, eosLine{EOS: true, Delivered: s.hub.delivered()}) //nolint:errcheck // conn is closing
			return
		}
		lines = lines[:0]
		for _, d := range got {
			lines = appendDelivery(lines, d)
		}
		if _, err := w.Write(lines); err != nil {
			return
		}
		if err := w.Flush(); err != nil {
			return
		}
	}
}
