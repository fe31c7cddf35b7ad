package bgp

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"time"
)

// SpeakerConfig configures one end of a BGP session.
type SpeakerConfig struct {
	LocalAS  uint32
	RouterID netip.Addr
	// HoldTime in seconds; 0 uses the default of 90. The negotiated hold
	// time is the minimum of both ends.
	HoldTime uint16
	// KeepaliveEvery overrides the keepalive interval (default: a third of
	// the negotiated hold time).
	KeepaliveEvery time.Duration
}

func (c SpeakerConfig) holdTime() uint16 {
	if c.HoldTime == 0 {
		return 90
	}
	return c.HoldTime
}

// Session is an established BGP session. Updates received from the peer are
// delivered on Updates; the channel is closed when the session ends.
type Session struct {
	PeerAS       uint32
	PeerRouterID netip.Addr

	conn    net.Conn
	w       *bufio.Writer
	updates chan *Update
	fsm     *FSM

	mu      sync.Mutex
	sendErr error
	closed  bool
	done    chan struct{}
	err     error
}

// Updates returns the channel of updates received from the peer.
func (s *Session) Updates() <-chan *Update { return s.updates }

// Done is closed when the session terminates; Err then reports why.
func (s *Session) Done() <-chan struct{} { return s.done }

// Err returns the terminal session error, if any. Valid after Done.
func (s *Session) Err() error { return s.err }

// State returns the FSM state.
func (s *Session) State() State { return s.fsm.State() }

// Send transmits an UPDATE to the peer.
func (s *Session) Send(u *Update) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("bgp: session closed")
	}
	if err := WriteMessage(s.w, u); err != nil {
		s.sendErr = err
		return err
	}
	return s.w.Flush()
}

// Close tears the session down with a Cease notification.
func (s *Session) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	_ = WriteMessage(s.w, &Notification{Code: NotifCease})
	_ = s.w.Flush()
	s.mu.Unlock()
	// The peer answers a Cease by closing, which can end the read loop —
	// and have it close the conn — before this line runs.
	if err := s.conn.Close(); err != nil && !errors.Is(err, net.ErrClosed) {
		return err
	}
	return nil
}

func (s *Session) sendLocked(m Message) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("bgp: session closed")
	}
	if err := WriteMessage(s.w, m); err != nil {
		return err
	}
	return s.w.Flush()
}

// Establish performs the BGP handshake on conn and returns an established
// Session. It drives the FSM through OpenSent → OpenConfirm → Established.
// The same code path serves active (dialer) and passive (listener) ends.
func Establish(ctx context.Context, conn net.Conn, cfg SpeakerConfig) (*Session, error) {
	s := &Session{
		conn:    conn,
		w:       bufio.NewWriter(conn),
		updates: make(chan *Update, 1024),
		fsm:     NewFSM(),
		done:    make(chan struct{}),
	}
	s.fsm.Step(EventManualStart)
	s.fsm.Step(EventTCPConnected)

	if dl, ok := ctx.Deadline(); ok {
		_ = conn.SetDeadline(dl)
	}

	// Send OPEN.
	open := NewOpen(cfg.LocalAS, cfg.holdTime(), cfg.RouterID)
	if err := s.sendLocked(open); err != nil {
		conn.Close()
		return nil, fmt.Errorf("bgp: sending OPEN: %w", err)
	}

	// Receive peer OPEN.
	r := bufio.NewReader(conn)
	msg, err := ReadMessage(r)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("bgp: waiting for OPEN: %w", err)
	}
	peerOpen, ok := msg.(*Open)
	if !ok {
		conn.Close()
		return nil, fmt.Errorf("bgp: expected OPEN, got %s", typeName(msg.Type()))
	}
	if peerOpen.VersionNum != Version {
		_ = s.sendLocked(&Notification{Code: NotifOpenError, Subcode: 1})
		conn.Close()
		return nil, fmt.Errorf("bgp: unsupported version %d", peerOpen.VersionNum)
	}
	s.fsm.Step(EventOpenReceived)
	s.PeerAS = peerOpen.AS
	s.PeerRouterID = peerOpen.RouterID

	// Confirm with KEEPALIVE and wait for the peer's.
	if err := s.sendLocked(&Keepalive{}); err != nil {
		conn.Close()
		return nil, fmt.Errorf("bgp: sending KEEPALIVE: %w", err)
	}
	msg, err = ReadMessage(r)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("bgp: waiting for KEEPALIVE: %w", err)
	}
	if n, ok := msg.(*Notification); ok {
		conn.Close()
		return nil, n
	}
	if _, ok := msg.(*Keepalive); !ok {
		conn.Close()
		return nil, fmt.Errorf("bgp: expected KEEPALIVE, got %s", typeName(msg.Type()))
	}
	s.fsm.Step(EventKeepaliveReceived)

	_ = conn.SetDeadline(time.Time{})

	hold := min(cfg.holdTime(), peerOpen.HoldTime)
	keepEvery := cfg.KeepaliveEvery
	if keepEvery == 0 && hold > 0 {
		keepEvery = time.Duration(hold) * time.Second / 3
	}
	go s.readLoop(r, hold)
	if keepEvery > 0 {
		go s.keepaliveLoop(keepEvery)
	}
	return s, nil
}

func (s *Session) readLoop(r *bufio.Reader, hold uint16) {
	defer close(s.updates)
	defer close(s.done)
	// Updates are handed to the consumer (which may retain them), so a
	// fresh Update is allocated per UPDATE — but the wire buffer is pooled
	// and keepalives reuse the same Update untouched.
	next := new(Update)
	for {
		if hold > 0 {
			_ = s.conn.SetReadDeadline(time.Now().Add(time.Duration(hold) * time.Second))
		}
		msg, err := ReadMessageInto(r, next)
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				s.fsm.Step(EventHoldTimerExpired)
				_ = s.sendLocked(&Notification{Code: NotifHoldTimerExpired})
			} else {
				s.fsm.Step(EventTCPFailed)
			}
			s.err = err
			s.conn.Close()
			return
		}
		switch m := msg.(type) {
		case *Update:
			s.fsm.Step(EventUpdateReceived)
			s.updates <- m
			next = new(Update)
		case *Keepalive:
			s.fsm.Step(EventKeepaliveReceived)
		case *Notification:
			s.fsm.Step(EventNotificationReceived)
			s.err = m
			s.conn.Close()
			return
		default:
			s.fsm.Step(EventTCPFailed)
			s.err = fmt.Errorf("bgp: unexpected %s in established state", typeName(msg.Type()))
			_ = s.sendLocked(&Notification{Code: NotifFSMError})
			s.conn.Close()
			return
		}
	}
}

func (s *Session) keepaliveLoop(every time.Duration) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-s.done:
			return
		case <-t.C:
			if err := s.sendLocked(&Keepalive{}); err != nil {
				return
			}
		}
	}
}

// Dial connects to addr and establishes a BGP session.
func Dial(ctx context.Context, addr string, cfg SpeakerConfig) (*Session, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	return Establish(ctx, conn, cfg)
}
