// Package faults is a deterministic fault-injection harness for the
// collection path. At GILL's scale (thousands of VP sessions, §4)
// connection resets, slow disks, partial writes, and corrupted tails are
// the steady state, not edge cases — so the failure handling in
// internal/{daemon,stream,archive,fabric} is exercised against *seeded*
// synthetic faults rather than waiting for production to produce them.
// Every wrapper draws from one seeded PRNG, so a failing schedule
// reproduces from its seed alone, and tests need no real sleeps beyond
// the injected latency they configure.
package faults

import (
	"errors"
	"io"
	"math/rand"
	"net"
	"sync"
	"time"
)

// Injected fault errors. They wrap net/io error semantics loosely on
// purpose: callers are expected to classify them like any other transport
// failure, not to special-case the harness.
var (
	// ErrInjectedReset is returned by a faulty Conn read/write chosen for a
	// reset; the connection is closed underneath.
	ErrInjectedReset = errors.New("faults: injected connection reset")
	// ErrInjectedWrite is returned by a faulty Writer chosen for an error.
	ErrInjectedWrite = errors.New("faults: injected write error")
	// ErrTruncated is returned once a Writer hits its TruncateAt budget —
	// the io.Writer analogue of the process dying mid-write.
	ErrTruncated = errors.New("faults: writer truncated (simulated crash)")
)

// Config parameterizes an Injector. The zero value injects nothing.
// Probabilities are per-operation in [0, 1].
type Config struct {
	// Seed drives every random decision; the same seed replays the same
	// fault schedule for the same operation sequence.
	Seed int64
	// DropEveryN makes a Listener reset every Nth accepted connection
	// immediately (0: never). N=2 drops connections 2, 4, 6, …
	DropEveryN int
	// ResetProb is the per-read/write probability a Conn is reset.
	ResetProb float64
	// LatencyProb is the per-operation probability of injected delay.
	LatencyProb float64
	// Latency is the maximum injected delay (uniform in (0, Latency]).
	Latency time.Duration
	// PartialProb is the per-write probability that only a prefix of the
	// buffer is written (a short write, as a crashing or backpressured
	// kernel would produce).
	PartialProb float64
	// CorruptProb is the per-write probability that one byte of the
	// written payload is flipped.
	CorruptProb float64
	// ErrProb is the per-write probability a Writer returns ErrInjectedWrite
	// without writing.
	ErrProb float64
	// TruncateAt, when > 0, hard-stops a Writer after that many bytes:
	// the write that crosses the budget is cut short and every later write
	// fails with ErrTruncated. This simulates a SIGKILL mid-archive.
	TruncateAt int64
}

// Injector hands out fault-wrapped connections, listeners, and writers
// that share one seeded PRNG.
type Injector struct {
	cfg Config

	mu      sync.Mutex
	rng     *rand.Rand
	accepts int
}

// New builds an injector over cfg.
func New(cfg Config) *Injector {
	return &Injector{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// hit draws one probability decision.
func (i *Injector) hit(p float64) bool {
	if p <= 0 {
		return false
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.rng.Float64() < p
}

// delay draws an injected latency (0 if none).
func (i *Injector) delay() time.Duration {
	if i.cfg.Latency <= 0 || !i.hit(i.cfg.LatencyProb) {
		return 0
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	return time.Duration(i.rng.Int63n(int64(i.cfg.Latency))) + 1
}

// intn draws a bounded random int.
func (i *Injector) intn(n int) int {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.rng.Intn(n)
}

// Listener wraps ln so every cfg.DropEveryN-th accepted connection is
// reset immediately and the rest carry the injector's Conn faults.
func (i *Injector) Listener(ln net.Listener) net.Listener {
	return &listener{Listener: ln, inj: i}
}

type listener struct {
	net.Listener
	inj *Injector
}

// Accept implements net.Listener. Dropped connections are accepted and
// closed (the TCP handshake completes, then the peer sees a reset/EOF —
// how a crashing collector looks from the router's side).
func (l *listener) Accept() (net.Conn, error) {
	for {
		conn, err := l.Listener.Accept()
		if err != nil {
			return nil, err
		}
		n := l.inj.cfg.DropEveryN
		if n > 0 {
			l.inj.mu.Lock()
			l.inj.accepts++
			drop := l.inj.accepts%n == 0
			l.inj.mu.Unlock()
			if drop {
				conn.Close()
				continue
			}
		}
		return l.inj.Conn(conn), nil
	}
}

// Conn wraps c with the injector's per-operation faults.
func (i *Injector) Conn(c net.Conn) net.Conn {
	return &conn{Conn: c, inj: i}
}

type conn struct {
	net.Conn
	inj *Injector
}

func (c *conn) Read(p []byte) (int, error) {
	if d := c.inj.delay(); d > 0 {
		time.Sleep(d)
	}
	if c.inj.hit(c.inj.cfg.ResetProb) {
		c.Conn.Close()
		return 0, ErrInjectedReset
	}
	return c.Conn.Read(p)
}

func (c *conn) Write(p []byte) (int, error) {
	if d := c.inj.delay(); d > 0 {
		time.Sleep(d)
	}
	if c.inj.hit(c.inj.cfg.ResetProb) {
		c.Conn.Close()
		return 0, ErrInjectedReset
	}
	if len(p) > 1 && c.inj.hit(c.inj.cfg.PartialProb) {
		n, err := c.Conn.Write(p[:c.inj.intn(len(p)-1)+1])
		if err != nil {
			return n, err
		}
		return n, io.ErrShortWrite
	}
	return c.Conn.Write(p)
}

// Writer wraps w with write faults. The returned *Writer reports how many
// bytes actually reached w, so tests can locate a simulated crash point.
func (i *Injector) Writer(w io.Writer) *Writer {
	return &Writer{dst: w, inj: i}
}

// Writer is a fault-injecting io.Writer.
type Writer struct {
	dst io.Writer
	inj *Injector

	mu      sync.Mutex
	written int64
	dead    bool
}

// Written returns the bytes that reached the underlying writer.
func (w *Writer) Written() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.written
}

// Write implements io.Writer with the injector's faults: latency,
// injected errors, short writes, single-byte corruption, and the
// TruncateAt crash budget.
func (w *Writer) Write(p []byte) (int, error) {
	if d := w.inj.delay(); d > 0 {
		time.Sleep(d)
	}
	w.mu.Lock()
	if w.dead {
		w.mu.Unlock()
		return 0, ErrTruncated
	}
	budget := int64(-1)
	if t := w.inj.cfg.TruncateAt; t > 0 {
		budget = t - w.written
	}
	w.mu.Unlock()

	if budget == 0 {
		w.kill()
		return 0, ErrTruncated
	}
	if w.inj.hit(w.inj.cfg.ErrProb) {
		return 0, ErrInjectedWrite
	}
	out := p
	short := false
	if budget > 0 && int64(len(out)) > budget {
		out, short = out[:budget], true
	}
	if len(out) > 1 && w.inj.hit(w.inj.cfg.PartialProb) {
		out, short = out[:w.inj.intn(len(out)-1)+1], true
	}
	if len(out) > 0 && w.inj.hit(w.inj.cfg.CorruptProb) {
		mut := append([]byte(nil), out...)
		mut[w.inj.intn(len(mut))] ^= 1 << uint(w.inj.intn(8))
		out = mut
	}
	n, err := w.dst.Write(out)
	w.mu.Lock()
	w.written += int64(n)
	w.mu.Unlock()
	if err != nil {
		return n, err
	}
	if short {
		if budget > 0 && int64(n) >= budget {
			w.kill()
			return n, ErrTruncated
		}
		return n, io.ErrShortWrite
	}
	return n, nil
}

func (w *Writer) kill() {
	w.mu.Lock()
	w.dead = true
	w.mu.Unlock()
}
