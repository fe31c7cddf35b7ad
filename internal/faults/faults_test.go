package faults

import (
	"bytes"
	"errors"
	"io"
	"net"
	"testing"
	"time"
)

func TestWriterDeterministicSchedule(t *testing.T) {
	run := func() (string, int64) {
		var buf bytes.Buffer
		w := New(Config{Seed: 42, PartialProb: 0.3, CorruptProb: 0.2, ErrProb: 0.1}).Writer(&buf)
		var log []byte
		for i := 0; i < 200; i++ {
			n, err := w.Write([]byte("0123456789"))
			log = append(log, byte(n))
			switch {
			case err == nil:
				log = append(log, 'k')
			case errors.Is(err, io.ErrShortWrite):
				log = append(log, 's')
			case errors.Is(err, ErrInjectedWrite):
				log = append(log, 'e')
			default:
				t.Fatalf("unexpected error: %v", err)
			}
		}
		return string(log) + "|" + buf.String(), w.Written()
	}
	a, an := run()
	b, bn := run()
	if a != b || an != bn {
		t.Fatal("same seed produced different fault schedules")
	}
}

func TestWriterTruncateAt(t *testing.T) {
	var buf bytes.Buffer
	w := New(Config{TruncateAt: 25}).Writer(&buf)
	if n, err := w.Write(bytes.Repeat([]byte{1}, 10)); n != 10 || err != nil {
		t.Fatalf("first write: n=%d err=%v", n, err)
	}
	if n, err := w.Write(bytes.Repeat([]byte{2}, 10)); n != 10 || err != nil {
		t.Fatalf("second write: n=%d err=%v", n, err)
	}
	// This write crosses the budget: only 5 bytes land, then the writer dies.
	n, err := w.Write(bytes.Repeat([]byte{3}, 10))
	if n != 5 || !errors.Is(err, ErrTruncated) {
		t.Fatalf("crossing write: n=%d err=%v, want 5, ErrTruncated", n, err)
	}
	if _, err := w.Write([]byte{4}); !errors.Is(err, ErrTruncated) {
		t.Fatalf("post-crash write: %v, want ErrTruncated", err)
	}
	if buf.Len() != 25 || w.Written() != 25 {
		t.Fatalf("buffer has %d bytes, Written() = %d, want 25", buf.Len(), w.Written())
	}
}

func TestWriterCorruption(t *testing.T) {
	var buf bytes.Buffer
	w := New(Config{Seed: 1, CorruptProb: 1}).Writer(&buf)
	payload := bytes.Repeat([]byte{0xAA}, 64)
	if _, err := w.Write(payload); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if bytes.Equal(buf.Bytes(), payload) {
		t.Fatal("corruption never fired at probability 1")
	}
	diff := 0
	for i := range payload {
		if buf.Bytes()[i] != payload[i] {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("%d bytes differ, want exactly 1 flipped byte", diff)
	}
}

func TestListenerDropsEveryNth(t *testing.T) {
	base, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer base.Close()
	ln := New(Config{DropEveryN: 2}).Listener(base)

	type result struct {
		conn net.Conn
		err  error
	}
	got := make(chan result, 1)
	go func() {
		for {
			c, err := ln.Accept()
			got <- result{c, err}
			if err != nil {
				return
			}
		}
	}()

	// Dial 4 times; Accepts 2 and 4 are dropped, so the server side sees
	// exactly connections 1 and 3.
	var served []net.Conn
	for i := 0; i < 4; i++ {
		c, err := net.Dial("tcp", base.Addr().String())
		if err != nil {
			t.Fatalf("Dial %d: %v", i, err)
		}
		defer c.Close()
		if i%2 == 0 {
			r := <-got
			if r.err != nil {
				t.Fatalf("Accept: %v", r.err)
			}
			served = append(served, r.conn)
			defer r.conn.Close()
		}
	}
	select {
	case r := <-got:
		t.Fatalf("unexpected extra accept: %+v", r)
	case <-time.After(20 * time.Millisecond):
	}
	if len(served) != 2 {
		t.Fatalf("served %d connections, want 2", len(served))
	}
}

func TestConnReset(t *testing.T) {
	server, client := net.Pipe()
	defer server.Close()
	fc := New(Config{Seed: 3, ResetProb: 1}).Conn(client)
	if _, err := fc.Write([]byte("x")); !errors.Is(err, ErrInjectedReset) {
		t.Fatalf("Write = %v, want ErrInjectedReset", err)
	}
	// The underlying conn is closed, so the peer sees EOF.
	buf := make([]byte, 1)
	if _, err := server.Read(buf); err == nil {
		t.Fatal("peer read succeeded after injected reset")
	}
}
