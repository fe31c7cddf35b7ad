package stream

// The consuming side of GET /stream: the one NDJSON client gill-tail, the
// examples and the tests share. Dial opens one subscription; Tail keeps
// one open across collector restarts and network flaps.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"

	"repro/internal/live"
	"repro/internal/resilience"
)

// ErrStopped wraps a handler error so Tail's caller can distinguish "my
// handler aborted" from transport failures.
var ErrStopped = errors.New("stream: handler stopped the tail")

// errEvicted is the transport error an {"type":"evicted"} line becomes:
// the hub hung up on purpose, and reconnecting is the remedy.
var errEvicted = errors.New("stream: evicted by the hub for falling behind")

// maxLine bounds one NDJSON line. A 4096-byte BGP message renders to a
// fraction of this; a peer that sends more without a newline is not a
// stream hub, and the line is an error instead of unbounded memory.
const maxLine = 64 << 10

// Client is one open /stream subscription.
type Client struct {
	body io.ReadCloser
	br   *bufio.Reader
}

// Dial subscribes to the stream served at addr (the admin plane's
// host:port) with query as the request's filter terms (see
// FilterFromValues). It returns once the hub's hello line has arrived —
// the handler writes it after subscribing, so every update published
// after Dial returns is delivered. ctx bounds the whole subscription, not
// just the connect: canceling it fails a blocked Next. A nil hc selects
// http.DefaultClient. A 4xx answer (a filter the hub rejects) is a
// resilience.Permanent error: retrying cannot fix it.
func Dial(ctx context.Context, hc *http.Client, addr string, query url.Values) (*Client, error) {
	if hc == nil {
		hc = http.DefaultClient
	}
	u := url.URL{Scheme: "http", Host: addr, Path: "/stream", RawQuery: query.Encode()}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u.String(), nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		resp.Body.Close()
		err := fmt.Errorf("stream: %s: %s: %s", u.String(), resp.Status, bytes.TrimSpace(msg))
		if resp.StatusCode >= 400 && resp.StatusCode < 500 {
			return nil, resilience.Permanent(err)
		}
		return nil, err
	}
	c := &Client{body: resp.Body, br: bufio.NewReaderSize(resp.Body, maxLine)}
	m, err := c.readLine()
	if err == nil && m.Type != "hello" {
		err = fmt.Errorf("stream: %s opened with a %q line, want hello", u.String(), m.Type)
	}
	if err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

func (c *Client) readLine() (*live.Message, error) {
	line, err := c.br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		return nil, fmt.Errorf("stream: line longer than %d bytes", maxLine)
	}
	if err != nil {
		return nil, err // a torn final line is dropped with the connection
	}
	var m live.Message
	if err := json.Unmarshal(line, &m); err != nil {
		return nil, fmt.Errorf("stream: bad line %q: %w", line, err)
	}
	return &m, nil
}

// Next blocks for the next update, skipping control lines (keepalive).
// An evicted notice and the end of the stream are both errors.
func (c *Client) Next() (*live.Message, error) {
	for {
		m, err := c.readLine()
		if err != nil {
			return nil, err
		}
		switch m.Type {
		case "UPDATE":
			return m, nil
		case "evicted":
			return nil, errEvicted
		}
	}
}

// Close ends the subscription.
func (c *Client) Close() error { return c.body.Close() }

// TailConfig tunes a supervised stream subscription.
type TailConfig struct {
	// Backoff paces reconnects (zero value: resilience defaults).
	Backoff resilience.Backoff
	// MaxRestarts bounds consecutive failed connection attempts before
	// Tail gives up (0: retry forever).
	MaxRestarts int
	// OnRetry observes each scheduled reconnect (may be nil).
	OnRetry func(restart int, err error)
	// Client replaces http.DefaultClient (tests, fault injection on the
	// transport).
	Client *http.Client
}

// Tail follows a stream with supervised reconnection: when the
// connection drops — a collector restart, a flapped path, an eviction,
// an injected fault — it redials with jittered exponential backoff and
// resubscribes instead of exiting, the client-side half of the platform's
// availability story (a consumer that dies with every collector deploy
// would re-fetch from the archive and melt it).
//
// Every update the hub sends reaches handler, in arrival order, and none
// twice: a hub never replays — a subscription only sees what is published
// after it — so there is nothing to deduplicate, within a connection or
// across a reconnect. Updates published while disconnected are missed,
// and Seq does not count them: it is a per-hub id, taken only while the
// hub has a subscriber, restarted at 1 with the collector and interleaved
// by concurrent publishers, so it is neither a gap detector nor a filter
// key.
//
// Tail returns nil when ctx ends, ErrStopped (wrapping the cause) when
// handler returns an error, or the last transport error once the restart
// budget is exhausted.
func Tail(ctx context.Context, addr string, query url.Values, cfg TailConfig, handler func(*live.Message) error) error {
	sup := resilience.Supervisor{
		Backoff:     cfg.Backoff,
		MaxRestarts: cfg.MaxRestarts,
		OnEvent: func(e resilience.Event) {
			if cfg.OnRetry != nil && e.Kind == resilience.EventBackoff {
				cfg.OnRetry(e.Restart, e.Err)
			}
		},
	}
	err := sup.Run(ctx, "stream-tail "+addr, func(ctx context.Context) error {
		c, err := Dial(ctx, cfg.Client, addr, query)
		if err != nil {
			return err
		}
		defer c.Close()
		for {
			m, err := c.Next()
			if err != nil {
				if ctx.Err() != nil {
					return nil
				}
				return err
			}
			if err := handler(m); err != nil {
				return resilience.Permanent(fmt.Errorf("%w: %w", ErrStopped, err))
			}
		}
	})
	if err != nil && ctx.Err() != nil && !errors.Is(err, ErrStopped) {
		return nil
	}
	return err
}
