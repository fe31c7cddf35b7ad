// Package telemetry is the observability layer of the collection path: a
// leveled, component-tagged logfmt logger, a sampled flight recorder for
// per-update latency tracing, a Prometheus text renderer over
// metrics.Registry, and the admin HTTP plane (/metrics, /statusz,
// /healthz, /readyz, /tracez, /debug/pprof/) every long-running GILL
// process embeds. The platform's overshoot-and-discard pipeline is only
// operable if what each session ingests, what the filters discard, and
// where updates stall is visible on a live daemon — the production
// deployments the paper builds on all treat live monitoring as a
// first-class component.
package telemetry

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Level is a log severity.
type Level int

// Log levels, in increasing severity.
const (
	LevelDebug Level = iota
	LevelInfo
	LevelWarn
	LevelError
)

// String implements fmt.Stringer.
func (l Level) String() string {
	switch l {
	case LevelDebug:
		return "debug"
	case LevelInfo:
		return "info"
	case LevelWarn:
		return "warn"
	case LevelError:
		return "error"
	default:
		return "unknown"
	}
}

// ParseLevel maps a flag value to a Level (defaulting to info).
func ParseLevel(s string) Level {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return LevelDebug
	case "warn", "warning":
		return LevelWarn
	case "error":
		return LevelError
	default:
		return LevelInfo
	}
}

// Rate-limit defaults: per (component, message) key, at most DefaultBurst
// lines per DefaultRateWindow; the rest are counted and surfaced as a
// suppressed=N field on the next emitted line for that key. A flapping
// session or a tripping breaker logs its first transitions and a periodic
// tally instead of drowning the log.
const (
	DefaultBurst      = 8
	DefaultRateWindow = 10 * time.Second
)

// msgState tracks one (component, message) key's rate-limit window.
type msgState struct {
	windowStart time.Time
	emitted     int
	suppressed  uint64
}

// core is the shared sink behind a Logger and all its With children.
type core struct {
	mu     sync.Mutex
	w      io.Writer
	level  Level
	clock  func() time.Time
	burst  int
	window time.Duration
	seen   map[string]*msgState
}

// Logger is a leveled, component-tagged logfmt logger. It is safe for
// concurrent use, and all methods are nil-receiver safe (a nil *Logger
// discards everything), so components can carry an optional logger
// without guarding every call site. With derives component children
// sharing the same sink, level and rate-limit state.
type Logger struct {
	c         *core
	component string
}

// NewLogger returns a logger writing logfmt lines to w at LevelInfo.
func NewLogger(w io.Writer) *Logger {
	return &Logger{c: &core{
		w:      w,
		level:  LevelInfo,
		clock:  time.Now,
		burst:  DefaultBurst,
		window: DefaultRateWindow,
		seen:   make(map[string]*msgState),
	}}
}

// SetLevel changes the minimum emitted severity (shared with all With
// children).
func (l *Logger) SetLevel(v Level) {
	if l == nil || l.c == nil {
		return
	}
	l.c.mu.Lock()
	l.c.level = v
	l.c.mu.Unlock()
}

// SetClock replaces the timestamp source (tests).
func (l *Logger) SetClock(clock func() time.Time) {
	if l == nil || l.c == nil || clock == nil {
		return
	}
	l.c.mu.Lock()
	l.c.clock = clock
	l.c.mu.Unlock()
}

// SetRateLimit tunes the per-message suppression: at most burst lines per
// window for each (component, message) key. burst <= 0 disables
// suppression entirely.
func (l *Logger) SetRateLimit(burst int, window time.Duration) {
	if l == nil || l.c == nil {
		return
	}
	l.c.mu.Lock()
	l.c.burst = burst
	l.c.window = window
	l.c.mu.Unlock()
}

// With returns a child logger tagged with the component (nested With
// joins with a dot). Children share the parent's sink and settings.
func (l *Logger) With(component string) *Logger {
	if l == nil || l.c == nil {
		return nil
	}
	name := component
	if l.component != "" {
		name = l.component + "." + component
	}
	return &Logger{c: l.c, component: name}
}

// Debug logs at debug level; kv is alternating key, value pairs.
func (l *Logger) Debug(msg string, kv ...any) { l.log(LevelDebug, msg, kv) }

// Info logs at info level.
func (l *Logger) Info(msg string, kv ...any) { l.log(LevelInfo, msg, kv) }

// Warn logs at warn level.
func (l *Logger) Warn(msg string, kv ...any) { l.log(LevelWarn, msg, kv) }

// Error logs at error level.
func (l *Logger) Error(msg string, kv ...any) { l.log(LevelError, msg, kv) }

func (l *Logger) log(lvl Level, msg string, kv []any) {
	if l == nil || l.c == nil {
		return
	}
	c := l.c
	c.mu.Lock()
	if lvl < c.level {
		c.mu.Unlock()
		return
	}
	now := c.clock()
	var suppressed uint64
	if c.burst > 0 {
		key := l.component + "\x00" + msg
		st := c.seen[key]
		if st == nil {
			st = &msgState{windowStart: now}
			c.seen[key] = st
		}
		if now.Sub(st.windowStart) >= c.window {
			st.windowStart = now
			st.emitted = 0
		}
		if st.emitted >= c.burst {
			st.suppressed++
			c.mu.Unlock()
			return
		}
		st.emitted++
		suppressed = st.suppressed
		st.suppressed = 0
	}
	var b strings.Builder
	b.WriteString("ts=")
	b.WriteString(now.UTC().Format("2006-01-02T15:04:05.000Z"))
	b.WriteString(" level=")
	b.WriteString(lvl.String())
	if l.component != "" {
		b.WriteString(" component=")
		writeValue(&b, l.component)
	}
	b.WriteString(" msg=")
	writeValue(&b, msg)
	for i := 0; i+1 < len(kv); i += 2 {
		key, ok := kv[i].(string)
		if !ok {
			key = "!BADKEY"
		}
		b.WriteByte(' ')
		b.WriteString(key)
		b.WriteByte('=')
		writeValue(&b, formatValue(kv[i+1]))
	}
	if len(kv)%2 == 1 {
		b.WriteString(" !DANGLING=")
		writeValue(&b, formatValue(kv[len(kv)-1]))
	}
	if suppressed > 0 {
		b.WriteString(" suppressed=")
		b.WriteString(strconv.FormatUint(suppressed, 10))
	}
	b.WriteByte('\n')
	_, _ = io.WriteString(c.w, b.String())
	c.mu.Unlock()
}

// formatValue stringifies a logfmt value.
func formatValue(v any) string {
	switch x := v.(type) {
	case nil:
		return "<nil>"
	case string:
		return x
	case error:
		return x.Error()
	case time.Duration:
		return x.String()
	case fmt.Stringer:
		return x.String()
	default:
		return fmt.Sprint(x)
	}
}

// writeValue quotes values containing logfmt-hostile characters.
func writeValue(b *strings.Builder, s string) {
	if s == "" || strings.ContainsAny(s, " \"=\n\t") {
		b.WriteString(strconv.Quote(s))
		return
	}
	b.WriteString(s)
}
