package telemetry

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// syncBuf is a goroutine-safe string sink.
type syncBuf struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuf) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuf) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func (s *syncBuf) lines() []string {
	out := strings.Split(strings.TrimSpace(s.String()), "\n")
	if len(out) == 1 && out[0] == "" {
		return nil
	}
	return out
}

func fixedClock(t time.Time) func() time.Time { return func() time.Time { return t } }

func TestLoggerLogfmtRendering(t *testing.T) {
	var buf syncBuf
	l := NewLogger(&buf)
	l.SetClock(fixedClock(time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)))
	l.With("daemon").Info("session up", "vp", "vp65001", "prefixes", 42, "peer", "with space")
	got := strings.TrimSpace(buf.String())
	want := `ts=2026-08-05T12:00:00.000Z level=info component=daemon msg="session up" vp=vp65001 prefixes=42 peer="with space"`
	if got != want {
		t.Errorf("logfmt line:\n got %s\nwant %s", got, want)
	}
}

func TestLoggerLevelFilter(t *testing.T) {
	var buf syncBuf
	l := NewLogger(&buf)
	l.SetLevel(LevelWarn)
	l.Debug("d")
	l.Info("i")
	l.Warn("w")
	l.Error("e")
	lines := buf.lines()
	if len(lines) != 2 {
		t.Fatalf("lines = %d, want 2 (warn+error):\n%s", len(lines), buf.String())
	}
	if !strings.Contains(lines[0], "level=warn") || !strings.Contains(lines[1], "level=error") {
		t.Errorf("wrong levels:\n%s", buf.String())
	}
}

func TestLoggerNilSafe(t *testing.T) {
	var l *Logger
	l.Info("does not panic", "k", 1)
	l.With("sub").Error("still fine")
	l.SetLevel(LevelDebug)
}

func TestLoggerOddKVAndBadKey(t *testing.T) {
	var buf syncBuf
	l := NewLogger(&buf)
	l.Info("odd", "k1", 1, "dangling")
	l.Info("badkey", 99, "v")
	s := buf.String()
	if !strings.Contains(s, "!DANGLING=dangling") {
		t.Errorf("dangling value not surfaced: %s", s)
	}
	if !strings.Contains(s, "!BADKEY=v") {
		t.Errorf("non-string key not surfaced: %s", s)
	}
}

func TestLoggerRateLimit(t *testing.T) {
	var buf syncBuf
	l := NewLogger(&buf)
	now := time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)
	l.SetClock(func() time.Time { return now })
	l.SetRateLimit(2, 10*time.Second)

	for i := 0; i < 10; i++ {
		l.Warn("breaker open", "n", i)
	}
	if got := len(buf.lines()); got != 2 {
		t.Fatalf("emitted %d lines within the window, want 2:\n%s", got, buf.String())
	}
	// A different message is not affected by the first key's budget.
	l.Warn("other message")
	if got := len(buf.lines()); got != 3 {
		t.Errorf("independent message suppressed: %d lines", got)
	}

	// After the window rolls, the next line carries the suppressed tally.
	now = now.Add(11 * time.Second)
	l.Warn("breaker open", "n", 10)
	lines := buf.lines()
	last := lines[len(lines)-1]
	if !strings.Contains(last, "suppressed=8") {
		t.Errorf("window-roll line missing suppressed count: %s", last)
	}
}

func TestLoggerDisabledRateLimit(t *testing.T) {
	var buf syncBuf
	l := NewLogger(&buf)
	l.SetRateLimit(0, time.Second)
	for i := 0; i < 50; i++ {
		l.Info("spam")
	}
	if got := len(buf.lines()); got != 50 {
		t.Errorf("burst<=0 must disable suppression: %d lines", got)
	}
}

func TestLoggerConcurrent(t *testing.T) {
	var buf syncBuf
	l := NewLogger(&buf)
	l.SetRateLimit(1000, time.Second)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sub := l.With("worker")
			for i := 0; i < 50; i++ {
				sub.Info("tick", "w", w, "i", i)
			}
		}(w)
	}
	wg.Wait()
	if got := len(buf.lines()); got != 400 {
		t.Errorf("concurrent lines = %d, want 400", got)
	}
	for _, line := range buf.lines() {
		if !strings.HasPrefix(line, "ts=") {
			t.Fatalf("torn line: %q", line)
		}
	}
}

func TestParseLevel(t *testing.T) {
	for in, want := range map[string]Level{
		"debug": LevelDebug, "info": LevelInfo, "warn": LevelWarn,
		"warning": LevelWarn, "error": LevelError, "": LevelInfo, "bogus": LevelInfo,
	} {
		if got := ParseLevel(in); got != want {
			t.Errorf("ParseLevel(%q) = %v, want %v", in, got, want)
		}
	}
}
