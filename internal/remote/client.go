package remote

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"dejaview/internal/display"
	"dejaview/internal/index"
	"dejaview/internal/obs"
	"dejaview/internal/simclock"
	"dejaview/internal/viewer"
)

// Client-visible terminal conditions. Every error a dead connection
// surfaces wraps one of these, so callers can match with errors.Is.
var (
	// ErrConnClosed reports a connection that is gone (closed locally,
	// reset, or dropped by the server without a notice).
	ErrConnClosed = errors.New("remote: connection closed")
	// ErrEvicted reports that the server evicted this client for
	// overflowing its send queue.
	ErrEvicted = errors.New("remote: evicted by server")
	// ErrShutdown reports that the server shut down gracefully.
	ErrShutdown = errors.New("remote: server shut down")
	// ErrUnknownSession reports a rejected handshake: the session ID the
	// client asked for is not in the daemon's registry. Match with
	// errors.Is; the wrapped message carries the offending ID.
	ErrUnknownSession = errors.New("remote: unknown session")
	// ErrBusy reports load shed at admission: the target session is at
	// its client capacity, over its byte quota, or (on a playback
	// request) out of stream budget. The connection attempt can be
	// retried later or pointed at another node. Match with errors.Is.
	ErrBusy = errors.New("remote: session busy")
)

// RemoteError is a request the server answered with an error status.
type RemoteError struct {
	Op  string // the request kind, e.g. "search"
	Msg string // the server's message
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("remote: %s: server: %s", e.Op, e.Msg)
}

// Client is a connection to a DejaView daemon. One client multiplexes
// any number of live views, playback streams, and RPCs over a single
// connection; all methods are safe for concurrent use.
type Client struct {
	nc    io.ReadWriteCloser
	hello serverHello

	writeMu sync.Mutex // serializes frame writes

	mu        sync.Mutex
	nextID    uint32
	pending   map[uint32]chan respMsg
	liveViews map[uint32]*LiveView
	playbacks map[uint32]*PlaybackStream
	err       error         // first terminal error, set once
	down      chan struct{} // closed when the demux loop exits

	closeOnce sync.Once
}

type respMsg struct {
	status uint8
	body   []byte
}

// Dial connects to a daemon over TCP and performs the handshake against
// its default session.
func Dial(addr string) (*Client, error) {
	return DialSession(addr, "")
}

// DialSession connects to a daemon over TCP and performs the handshake
// against the named session; the empty ID routes to the daemon's
// default. A daemon that does not hold the session answers with
// ErrUnknownSession; one shedding load answers with ErrBusy.
func DialSession(addr, sessionID string) (*Client, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c, err := NewClientSession(nc, sessionID)
	if err != nil {
		nc.Close()
		return nil, err
	}
	return c, nil
}

// NewClient performs the protocol handshake over an established
// connection and starts the demultiplexer. The client owns rw and
// targets the daemon's default session.
func NewClient(rw io.ReadWriteCloser) (*Client, error) {
	return NewClientSession(rw, "")
}

// NewClientSession is NewClient targeting a named session. The
// handshake's rejection paths surface as typed errors: ErrVersion for a
// failed version negotiation, ErrUnknownSession for an unregistered
// session ID, ErrBusy when admission control sheds the connection.
func NewClientSession(rw io.ReadWriteCloser, sessionID string) (*Client, error) {
	if !ValidSessionID(sessionID) {
		return nil, fmt.Errorf("remote: hello: invalid session id %q", sessionID)
	}
	c := &Client{
		nc:        rw,
		pending:   map[uint32]chan respMsg{},
		liveViews: map[uint32]*LiveView{},
		playbacks: map[uint32]*PlaybackStream{},
		down:      make(chan struct{}),
	}
	hello := encodeClientHello(clientHello{MinVersion: 1, MaxVersion: Version, SessionID: sessionID})
	if err := viewer.WriteFrame(rw, FrameClientHello, hello); err != nil {
		return nil, fmt.Errorf("remote: hello: %w", transportErr(err))
	}
	kind, payload, err := viewer.ReadFrame(rw)
	if err != nil {
		return nil, fmt.Errorf("remote: hello: %w", transportErr(err))
	}
	switch kind {
	case FrameServerHello:
		if c.hello, err = decodeServerHello(payload); err != nil {
			return nil, err
		}
	case FrameNotice:
		code, msg, err := decodeNotice(payload)
		if err != nil {
			return nil, err
		}
		switch code {
		case NoticeBadVersion:
			return nil, fmt.Errorf("%w: %s", ErrVersion, msg)
		case NoticeUnknownSession:
			return nil, fmt.Errorf("%w: %s", ErrUnknownSession, msg)
		case NoticeBusy:
			return nil, fmt.Errorf("%w: %s", ErrBusy, msg)
		}
		return nil, protoErrf("connection rejected: %s", msg)
	default:
		return nil, protoErrf("expected server hello, got frame %d", kind)
	}
	//lint:ignore goroutine-lifecycle demux exits when the connection closes: ReadFrame errors on EOF and Client.Close tears down the socket
	go c.demux()
	return c, nil
}

// Size reports the served desktop dimensions from the handshake.
func (c *Client) Size() (w, h int) {
	return int(c.hello.Width), int(c.hello.Height)
}

// HasSession reports whether the daemon serves a live session.
func (c *Client) HasSession() bool { return c.hello.Flags&flagHasSession != 0 }

// HasArchive reports whether the daemon serves a reopened archive.
func (c *Client) HasArchive() bool { return c.hello.Flags&flagHasArchive != 0 }

// ServerTime reports the daemon's clock at handshake time.
func (c *Client) ServerTime() simclock.Time { return c.hello.Now }

// SessionID reports the session the connection was routed to, as the
// server confirmed it. Empty against a protocol-1 daemon.
func (c *Client) SessionID() string { return c.hello.SessionID }

// Close tears the connection down. Outstanding requests and streams fail
// with ErrConnClosed.
func (c *Client) Close() error {
	c.closeOnce.Do(func() {
		c.setErr(ErrConnClosed)
		c.nc.Close()
	})
	return nil
}

// Err reports the connection's terminal error, nil while it is healthy.
func (c *Client) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// setErr records the first terminal error; later calls are no-ops.
func (c *Client) setErr(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	c.mu.Unlock()
}

// fail ends the connection: record err, wake every waiter, mark every
// stream dead.
func (c *Client) fail(err error) {
	c.setErr(err)
	c.mu.Lock()
	views := c.liveViews
	plays := c.playbacks
	c.liveViews = map[uint32]*LiveView{}
	c.playbacks = map[uint32]*PlaybackStream{}
	final := c.err
	c.mu.Unlock()
	close(c.down) // pending waiters select on this
	for _, lv := range views {
		lv.fail(final)
	}
	for _, ps := range plays {
		ps.finish(final)
	}
	c.nc.Close()
}

// demux routes incoming frames: responses to their waiting request,
// stream frames to their live view or playback stream, notices to the
// terminal error.
func (c *Client) demux() {
	for {
		kind, payload, err := viewer.ReadFrame(c.nc)
		if err != nil {
			c.fail(fmt.Errorf("%w: %v", ErrConnClosed, err))
			return
		}
		switch kind {
		case FrameResponse:
			id, status, body, err := decodeResponse(payload)
			if err != nil {
				c.fail(err)
				return
			}
			c.mu.Lock()
			ch := c.pending[id]
			delete(c.pending, id)
			c.mu.Unlock()
			if ch != nil {
				ch <- respMsg{status, append([]byte(nil), body...)}
			}
		case FrameStreamData:
			id, elem, data, err := decodeStreamData(payload)
			if err != nil {
				c.fail(err)
				return
			}
			if err := c.applyStream(id, elem, data); err != nil {
				c.fail(err)
				return
			}
		case FrameStreamEnd:
			id, status, msg, err := decodeStreamEnd(payload)
			if err != nil {
				c.fail(err)
				return
			}
			c.endStream(id, status, msg)
		case FrameStatsSnapshot:
			id, _, err := decodeStatsSnapshot(payload)
			if err != nil {
				c.fail(err)
				return
			}
			c.mu.Lock()
			ch := c.pending[id]
			delete(c.pending, id)
			c.mu.Unlock()
			if ch != nil {
				ch <- respMsg{statusOK, append([]byte(nil), payload[4:]...)}
			}
		case FrameNotice:
			code, msg, err := decodeNotice(payload)
			if err != nil {
				c.fail(err)
				return
			}
			c.fail(noticeError(code, msg))
			return
		default:
			c.fail(protoErrf("unexpected frame kind %d from server", kind))
			return
		}
	}
}

func noticeError(code uint8, msg string) error {
	switch code {
	case NoticeShutdown:
		return fmt.Errorf("%w: %s", ErrShutdown, msg)
	case NoticeEvicted:
		return fmt.Errorf("%w: %s", ErrEvicted, msg)
	case NoticeUnknownSession:
		return fmt.Errorf("%w: %s", ErrUnknownSession, msg)
	case NoticeBusy:
		return fmt.Errorf("%w: %s", ErrBusy, msg)
	default:
		return fmt.Errorf("%w: server notice: %s", ErrConnClosed, msg)
	}
}

func (c *Client) applyStream(id uint32, elem uint8, data []byte) error {
	c.mu.Lock()
	lv := c.liveViews[id]
	ps := c.playbacks[id]
	c.mu.Unlock()
	switch {
	case lv != nil:
		return lv.apply(elem, data)
	case ps != nil:
		return ps.apply(elem, data)
	}
	return nil // late frames for a detached stream: ignore
}

func (c *Client) endStream(id uint32, status uint8, msg string) {
	c.mu.Lock()
	lv := c.liveViews[id]
	ps := c.playbacks[id]
	delete(c.liveViews, id)
	delete(c.playbacks, id)
	c.mu.Unlock()
	var err error
	if status != statusOK {
		err = &RemoteError{Op: "stream", Msg: msg}
	}
	if lv != nil {
		lv.fail(err)
	}
	if ps != nil {
		ps.finish(err)
	}
}

// request sends one request and waits for its response.
func (c *Client) request(op string, opCode uint8, body []byte) (respMsg, error) {
	id, ch, err := c.startRequest()
	if err != nil {
		return respMsg{}, fmt.Errorf("remote: %s: %w", op, err)
	}
	if err := c.writeFrame(FrameRequest, encodeRequest(id, opCode, body)); err != nil {
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		return respMsg{}, fmt.Errorf("remote: %s: %w", op, err)
	}
	return c.await(op, ch)
}

func (c *Client) startRequest() (uint32, chan respMsg, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return 0, nil, c.err
	}
	c.nextID++
	id := c.nextID
	ch := make(chan respMsg, 1)
	c.pending[id] = ch
	return id, ch, nil
}

func (c *Client) await(op string, ch chan respMsg) (respMsg, error) {
	select {
	case r := <-ch:
		if r.status != statusOK {
			return r, &RemoteError{Op: op, Msg: string(r.body)}
		}
		return r, nil
	case <-c.down:
		return respMsg{}, fmt.Errorf("remote: %s: %w", op, c.Err())
	}
}

func (c *Client) writeFrame(kind byte, payload []byte) error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	return transportErr(viewer.WriteFrame(c.nc, kind, payload))
}

// transportErr wraps a failed frame read or write in ErrConnClosed, as
// the demultiplexer does: a broken pipe or reset means the connection is
// gone. The transport error stays in the chain. Protocol violations (an
// oversized or malformed frame) keep their own type.
func transportErr(err error) error {
	if err == nil || errors.Is(err, viewer.ErrProtocol) {
		return err
	}
	return fmt.Errorf("%w: %w", ErrConnClosed, err)
}

// Search runs a query against the daemon's live session index.
func (c *Client) Search(q index.Query) ([]index.Result, error) {
	return c.searchFrom(SourceSession, q)
}

// SearchArchive runs a query against the daemon's archive index.
func (c *Client) SearchArchive(q index.Query) ([]index.Result, error) {
	return c.searchFrom(SourceArchive, q)
}

func (c *Client) searchFrom(src Source, q index.Query) ([]index.Result, error) {
	r, err := c.request("search", OpSearch, encodeSearchReq(src, index.EncodeQuery(q)))
	if err != nil {
		return nil, err
	}
	res, err := index.DecodeResults(r.body)
	if err != nil {
		return nil, fmt.Errorf("remote: search: %w", err)
	}
	return res, nil
}

// ServerStats fetches the daemon's aggregate counters and this
// connection's own.
func (c *Client) ServerStats() (Stats, ClientStats, error) {
	r, err := c.request("stats", OpStats, nil)
	if err != nil {
		return Stats{}, ClientStats{}, err
	}
	return decodeStatsResp(r.body)
}

// StatsSnapshot fetches the daemon's full observability registry
// snapshot: every counter, gauge, and histogram the serving process has
// registered, not just the remote layer's aggregate view.
func (c *Client) StatsSnapshot() (obs.Snapshot, error) {
	r, err := c.request("stats snapshot", OpStatsSnapshot, nil)
	if err != nil {
		return obs.Snapshot{}, err
	}
	s, err := obs.ParseSnapshot(r.body)
	if err != nil {
		return obs.Snapshot{}, fmt.Errorf("remote: stats snapshot: %w", err)
	}
	return s, nil
}

// SendKey forwards a key event to the served session.
func (c *Client) SendKey(t simclock.Time, key uint32, down bool) error {
	return c.sendInput(&viewer.InputEvent{Kind: viewer.InputKey, Time: t, Key: key, Down: down})
}

// SendPointerMove forwards a pointer motion event.
func (c *Client) SendPointerMove(t simclock.Time, x, y int32) error {
	return c.sendInput(&viewer.InputEvent{Kind: viewer.InputPointerMove, Time: t, X: x, Y: y})
}

func (c *Client) sendInput(e *viewer.InputEvent) error {
	if err := c.Err(); err != nil {
		return err
	}
	return c.writeFrame(viewer.FrameInput, viewer.EncodeInput(e))
}

// LiveView is an attached live session view: a local replica of the
// served desktop, updated as the session's display flushes.
type LiveView struct {
	c  *Client
	id uint32

	mu      sync.Mutex
	fb      *display.Framebuffer
	applied uint64 // display commands applied
	shots   uint64 // screenshots applied (1 after the initial screen)
	err     error
	done    bool
	change  chan struct{} // replaced on every update (broadcast)
}

// AttachLive attaches a live view of the daemon's session. The initial
// screen arrives asynchronously; WaitScreen blocks until it is in place.
func (c *Client) AttachLive() (*LiveView, error) {
	id, ch, err := c.startRequest()
	if err != nil {
		return nil, fmt.Errorf("remote: attach: %w", err)
	}
	lv := &LiveView{c: c, id: id, change: make(chan struct{})}
	c.mu.Lock()
	c.liveViews[id] = lv
	c.mu.Unlock()
	fail := func(err error) (*LiveView, error) {
		c.mu.Lock()
		delete(c.pending, id)
		delete(c.liveViews, id)
		c.mu.Unlock()
		return nil, err
	}
	if err := c.writeFrame(FrameRequest, encodeRequest(id, OpAttach, encodeAttachReq(SourceSession))); err != nil {
		return fail(fmt.Errorf("remote: attach: %w", err))
	}
	r, err := c.await("attach", ch)
	if err != nil {
		return fail(err)
	}
	if _, _, err := decodeAttachResp(r.body); err != nil {
		return fail(err)
	}
	return lv, nil
}

// apply is called from the demux loop, in stream order: the initial
// screenshot always precedes the first command.
func (lv *LiveView) apply(elem uint8, data []byte) error {
	lv.mu.Lock()
	defer lv.mu.Unlock()
	defer lv.broadcast()
	switch elem {
	case StreamScreenshot:
		fb, _, err := display.DecodeScreenshot(data)
		if err != nil {
			return err
		}
		lv.fb = fb
		lv.shots++
	case StreamCommand:
		if lv.fb == nil {
			return protoErrf("live command before initial screen")
		}
		cmd, _, err := display.DecodeCommand(data)
		if err != nil {
			return err
		}
		if err := lv.fb.Apply(&cmd); err != nil {
			return err
		}
		lv.applied++
	}
	return nil
}

// broadcast wakes every waiter; callers hold lv.mu.
func (lv *LiveView) broadcast() {
	close(lv.change)
	lv.change = make(chan struct{})
}

func (lv *LiveView) fail(err error) {
	lv.mu.Lock()
	lv.done = true
	if lv.err == nil {
		lv.err = err
	}
	lv.broadcast()
	lv.mu.Unlock()
}

// Screen snapshots the view's current screen (nil before the initial
// screenshot arrives).
func (lv *LiveView) Screen() *display.Framebuffer {
	lv.mu.Lock()
	defer lv.mu.Unlock()
	if lv.fb == nil {
		return nil
	}
	return lv.fb.Snapshot()
}

// Applied reports the number of display commands applied.
func (lv *LiveView) Applied() uint64 {
	lv.mu.Lock()
	defer lv.mu.Unlock()
	return lv.applied
}

// Err reports the view's terminal error: nil while streaming, and after
// a clean detach.
func (lv *LiveView) Err() error {
	lv.mu.Lock()
	defer lv.mu.Unlock()
	return lv.err
}

// WaitScreen blocks until the initial screen is in place.
func (lv *LiveView) WaitScreen(timeout time.Duration) error {
	return lv.wait(timeout, func() bool { return lv.shots > 0 })
}

// WaitApplied blocks until at least n commands were applied.
func (lv *LiveView) WaitApplied(n uint64, timeout time.Duration) error {
	return lv.wait(timeout, func() bool { return lv.applied >= n })
}

// wait blocks until cond (evaluated under lv.mu) holds, the view ends,
// or the timeout expires.
func (lv *LiveView) wait(timeout time.Duration, cond func() bool) error {
	//lint:ignore wallclock the caller-supplied timeout bounds a wait on a real network peer, not replayed state
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		lv.mu.Lock()
		if cond() {
			lv.mu.Unlock()
			return nil
		}
		if lv.done {
			err := lv.err
			lv.mu.Unlock()
			if err == nil {
				err = fmt.Errorf("remote: live view detached")
			}
			return err
		}
		ch := lv.change
		lv.mu.Unlock()
		select {
		case <-ch:
		case <-deadline.C:
			return fmt.Errorf("remote: live view: wait timed out after %v", timeout)
		}
	}
}

// Detach stops the live stream on the server and releases the view.
func (lv *LiveView) Detach() error {
	c := lv.c
	c.mu.Lock()
	delete(c.liveViews, lv.id)
	c.mu.Unlock()
	lv.mu.Lock()
	lv.done = true
	lv.broadcast()
	lv.mu.Unlock()
	_, err := c.request("detach", OpDetach, encodeDetachReq(lv.id))
	return err
}

// PlaybackStream is a server-driven playback: the daemon streams the
// seeked screen and then the window's commands or keyframes into a local
// replica.
type PlaybackStream struct {
	c  *Client
	id uint32

	mu       sync.Mutex
	fb       *display.Framebuffer
	commands uint64
	shots    uint64
	err      error
	done     chan struct{}
}

// Playback starts a server-side playback stream. Wait blocks until the
// stream completes.
func (c *Client) Playback(req PlaybackRequest) (*PlaybackStream, error) {
	id, ch, err := c.startRequest()
	if err != nil {
		return nil, fmt.Errorf("remote: playback: %w", err)
	}
	ps := &PlaybackStream{c: c, id: id, done: make(chan struct{})}
	c.mu.Lock()
	c.playbacks[id] = ps
	c.mu.Unlock()
	fail := func(err error) (*PlaybackStream, error) {
		c.mu.Lock()
		delete(c.pending, id)
		delete(c.playbacks, id)
		c.mu.Unlock()
		return nil, err
	}
	if err := c.writeFrame(FrameRequest, encodeRequest(id, OpPlayback, encodePlaybackReq(req))); err != nil {
		return fail(fmt.Errorf("remote: playback: %w", err))
	}
	if _, err := c.await("playback", ch); err != nil {
		return fail(err)
	}
	return ps, nil
}

func (ps *PlaybackStream) apply(elem uint8, data []byte) error {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	switch elem {
	case StreamScreenshot:
		fb, _, err := display.DecodeScreenshot(data)
		if err != nil {
			return err
		}
		ps.fb = fb
		ps.shots++
	case StreamCommand:
		if ps.fb == nil {
			return protoErrf("playback command before seeked screen")
		}
		cmd, _, err := display.DecodeCommand(data)
		if err != nil {
			return err
		}
		if err := ps.fb.Apply(&cmd); err != nil {
			return err
		}
		ps.commands++
	}
	return nil
}

func (ps *PlaybackStream) finish(err error) {
	ps.mu.Lock()
	if ps.err == nil {
		ps.err = err
	}
	ps.mu.Unlock()
	select {
	case <-ps.done:
	default:
		close(ps.done)
	}
}

// Wait blocks until the stream ends and reports its terminal error (nil
// on a complete stream).
func (ps *PlaybackStream) Wait() error {
	<-ps.done
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return ps.err
}

// Screen snapshots the playback screen (nil before the seeked screen
// arrives).
func (ps *PlaybackStream) Screen() *display.Framebuffer {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if ps.fb == nil {
		return nil
	}
	return ps.fb.Snapshot()
}

// Commands reports the number of stream commands applied.
func (ps *PlaybackStream) Commands() uint64 {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return ps.commands
}

// Screenshots reports the number of screenshots applied (at least 1 for
// a completed stream; more in keyframe mode).
func (ps *PlaybackStream) Screenshots() uint64 {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return ps.shots
}
