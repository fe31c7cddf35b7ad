// Command gill-tail follows a GILL live feed (the RIS-Live-style NDJSON
// stream a daemon serves on its admin plane's /stream) and prints updates
// as they arrive. When the feed drops — a collector restart, a network
// blip, an eviction for falling behind — it reconnects with jittered
// exponential backoff and resubscribes, delivering each update at most
// once, instead of exiting (disable with -retry=false).
//
// Usage (-addr is the daemon's -admin address; -prefix and -vp become
// the prefix= and vp= terms of the /stream filter):
//
//	gill-tail -addr collector.example:8471
//	gill-tail -addr 127.0.0.1:8471 -prefix 203.0.113.0/24
//	gill-tail -addr 127.0.0.1:8471 -vp vp65001 -json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/url"
	"os"
	"os/signal"
	"strings"
	"time"

	"repro/internal/live"
	"repro/internal/resilience"
	"repro/internal/stream"
	"repro/internal/telemetry"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:8471", "daemon admin-plane address (its /stream is the feed)")
		prefix   = flag.String("prefix", "", "subscribe to one prefix (the stream filter's prefix= term)")
		vp       = flag.String("vp", "", "subscribe to one vantage point (the stream filter's vp= term)")
		asJSON   = flag.Bool("json", false, "print raw JSON messages")
		retry    = flag.Bool("retry", true, "reconnect with backoff when the feed drops")
		maxTry   = flag.Int("retry-max", 0, "give up after this many consecutive failed reconnects (0: never)")
		logLevel = flag.String("log-level", "info", "minimum log level (debug, info, warn, error)")
	)
	flag.Parse()

	logg := telemetry.NewLogger(os.Stderr)
	logg.SetLevel(telemetry.ParseLevel(*logLevel))
	logm := logg.With("tail")
	fatal := func(msg string, kv ...any) {
		logm.Error(msg, kv...)
		os.Exit(1)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	sub := url.Values{}
	if *prefix != "" {
		sub.Set("prefix", *prefix)
	}
	if *vp != "" {
		sub.Set("vp", *vp)
	}
	enc := json.NewEncoder(os.Stdout)
	print := func(m *live.Message) error {
		if *asJSON {
			return enc.Encode(m)
		}
		at := time.Unix(m.Timestamp, 0).UTC().Format("15:04:05")
		if m.Withdraw {
			fmt.Printf("%s %-10s WITHDRAW %s\n", at, m.VP, m.Prefix)
			return nil
		}
		path := make([]string, len(m.Path))
		for i, as := range m.Path {
			path[i] = fmt.Sprint(as)
		}
		fmt.Printf("%s %-10s %s via %s (%d communities)\n",
			at, m.VP, m.Prefix, strings.Join(path, " "), len(m.Communities))
		return nil
	}

	if !*retry {
		c, err := stream.Dial(ctx, nil, *addr, sub)
		if err != nil {
			fatal("dial failed", "addr", *addr, "err", err)
		}
		defer c.Close()
		for {
			m, err := c.Next()
			if err != nil {
				if ctx.Err() != nil {
					return
				}
				fatal("feed lost", "err", err)
			}
			_ = print(m)
		}
	}

	err := stream.Tail(ctx, *addr, sub, stream.TailConfig{
		Backoff:     resilience.Backoff{Base: time.Second, Max: 30 * time.Second},
		MaxRestarts: *maxTry,
		OnRetry: func(restart int, err error) {
			logm.Warn("feed lost, reconnecting", "attempt", restart, "err", err)
		},
	}, print)
	if err != nil {
		fatal("tail failed", "err", err)
	}
}
