package remote

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"dejaview/internal/access"
	"dejaview/internal/core"
	"dejaview/internal/display"
	"dejaview/internal/failpoint"
	"dejaview/internal/index"
	"dejaview/internal/record"
	"dejaview/internal/simclock"
	"dejaview/internal/viewer"
)

const sec = simclock.Second

// newSession builds a session with a bit of scripted desktop history:
// typed text in the index and display commands in the record.
func newSession(t *testing.T, seconds int) *core.Session {
	t.Helper()
	s := core.NewSession(core.Config{
		// Frequent keyframes so short scripted sessions still exercise
		// seek starting points and keyframe playback.
		Record: record.Options{ScreenshotInterval: 2 * sec, ScreenshotMinChange: 0.01},
	})
	app := s.Registry().Register("Editor", "editor")
	win := app.AddComponent(nil, access.RoleWindow, "notes.txt - Editor", "")
	para := app.AddComponent(win, access.RoleParagraph, "", "remote access report")
	s.Registry().SetFocus(app)
	for i := 0; i < seconds; i++ {
		if err := s.Display().Submit(display.SolidFill(s.Clock().Now(),
			display.NewRect(0, (i*40)%700, 1024, 60), display.Pixel(i+1))); err != nil {
			t.Fatal(err)
		}
		app.SetText(para, "remote access report line "+string(rune('a'+i%26)))
		s.NoteKeyboardInput()
		if _, _, err := s.Tick(); err != nil {
			t.Fatal(err)
		}
		s.Clock().Advance(sec)
	}
	return s
}

// startServer serves a fresh daemon on a loopback listener and cleans it
// up with the test.
func startServer(t *testing.T, opts Options) *Server {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if opts.DrainTimeout == 0 {
		opts.DrainTimeout = 2 * time.Second
	}
	srv := Serve(ln, opts)
	t.Cleanup(func() { srv.Close() })
	return srv
}

func dialClient(t *testing.T, srv *Server) *Client {
	t.Helper()
	c, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestHandshake(t *testing.T) {
	s := newSession(t, 3)
	srv := startServer(t, Options{Session: s})
	c := dialClient(t, srv)
	if w, h := c.Size(); w != 1024 || h != 768 {
		t.Errorf("hello size %dx%d", w, h)
	}
	if !c.HasSession() || c.HasArchive() {
		t.Errorf("hello flags: session %v archive %v", c.HasSession(), c.HasArchive())
	}
	if c.ServerTime() != s.Clock().Now() {
		t.Errorf("hello time %v, clock %v", c.ServerTime(), s.Clock().Now())
	}
}

func TestVersionNegotiationRejectsFutureClient(t *testing.T) {
	s := newSession(t, 1)
	srv := startServer(t, Options{Session: s})
	nc, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	hello := encodeClientHello(clientHello{MinVersion: 99, MaxVersion: 100})
	if err := viewer.WriteFrame(nc, FrameClientHello, hello); err != nil {
		t.Fatal(err)
	}
	kind, payload, err := viewer.ReadFrame(nc)
	if err != nil {
		t.Fatal(err)
	}
	if kind != FrameNotice {
		t.Fatalf("got frame %d, want notice", kind)
	}
	code, _, err := decodeNotice(payload)
	if err != nil {
		t.Fatal(err)
	}
	if code != NoticeBadVersion {
		t.Errorf("notice code %d, want NoticeBadVersion", code)
	}
}

func TestLiveViewTracksSession(t *testing.T) {
	s := newSession(t, 3)
	srv := startServer(t, Options{Session: s})
	c := dialClient(t, srv)
	lv, err := c.AttachLive()
	if err != nil {
		t.Fatal(err)
	}
	if err := lv.WaitScreen(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	// The attach snapshot must match the session's screen exactly.
	if lv.Screen().Hash() != s.Display().Screen().Hash() {
		t.Fatal("initial live screen diverges from session screen")
	}
	// Stream a batch of updates and wait for them to apply remotely.
	const n = 20
	for i := 0; i < n; i++ {
		if err := s.Display().Submit(display.SolidFill(s.Clock().Now(),
			display.NewRect((i*30)%900, (i*50)%600, 100, 100), display.Pixel(0xBEEF+i))); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Display().Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if err := lv.WaitApplied(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	// Commands may have merged server-side; converge on the screen hash.
	deadline := time.Now().Add(5 * time.Second)
	want := s.Display().Screen().Hash()
	for lv.Screen().Hash() != want {
		if time.Now().After(deadline) {
			t.Fatal("live view never converged to the session screen")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := lv.Detach(); err != nil {
		t.Fatal(err)
	}
}

func TestManyConcurrentLiveViewers(t *testing.T) {
	s := newSession(t, 2)
	srv := startServer(t, Options{Session: s})
	const clients = 8
	views := make([]*LiveView, clients)
	for i := range views {
		c := dialClient(t, srv)
		lv, err := c.AttachLive()
		if err != nil {
			t.Fatal(err)
		}
		if err := lv.WaitScreen(5 * time.Second); err != nil {
			t.Fatal(err)
		}
		views[i] = lv
	}
	for i := 0; i < 10; i++ {
		if err := s.Display().Submit(display.SolidFill(s.Clock().Now(),
			display.NewRect(i*10, i*10, 200, 200), display.Pixel(i+100))); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Display().Flush(); err != nil {
			t.Fatal(err)
		}
	}
	want := s.Display().Screen().Hash()
	for i, lv := range views {
		deadline := time.Now().Add(5 * time.Second)
		for lv.Screen().Hash() != want {
			if time.Now().After(deadline) {
				t.Fatalf("viewer %d never converged", i)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	if st := srv.Stats(); st.ActiveClients != clients {
		t.Errorf("active clients %d, want %d", st.ActiveClients, clients)
	}
}

// TestStalledClientEvicted is the core isolation property: a client that
// stops reading overflows its bounded queue and is evicted, while Submit
// and a healthy viewer proceed unimpeded.
func TestStalledClientEvicted(t *testing.T) {
	s := newSession(t, 1)
	srv := startServer(t, Options{Session: s, SendQueue: 4, DrainTimeout: 300 * time.Millisecond})

	// The stalled client: raw protocol handshake + attach, then never
	// read again.
	nc, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if err := viewer.WriteFrame(nc, FrameClientHello,
		encodeClientHello(clientHello{MinVersion: 1, MaxVersion: Version})); err != nil {
		t.Fatal(err)
	}
	if kind, _, err := viewer.ReadFrame(nc); err != nil || kind != FrameServerHello {
		t.Fatalf("handshake: kind %d err %v", kind, err)
	}
	if err := viewer.WriteFrame(nc, FrameRequest,
		encodeRequest(1, OpAttach, encodeAttachReq(SourceSession))); err != nil {
		t.Fatal(err)
	}
	// Do not read: the response, screenshot, and stream frames pile up.

	// A healthy viewer alongside it.
	healthy := dialClient(t, srv)
	lv, err := healthy.AttachLive()
	if err != nil {
		t.Fatal(err)
	}
	if err := lv.WaitScreen(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	// Large commands defeat kernel socket buffering: each pattern is
	// ~1 MiB encoded, so a few unread frames fill TCP and the app-level
	// queue (cap 4) overflows deterministically.
	pattern := make([]display.Pixel, 512*512)
	for i := range pattern {
		pattern[i] = display.Pixel(i)
	}
	var maxSubmit time.Duration
	for i := 0; i < 40; i++ {
		start := time.Now()
		if err := s.Display().Submit(display.PatternFill(s.Clock().Now(),
			display.NewRect(0, 0, 1024, 768), pattern, 512, 512)); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Display().Flush(); err != nil {
			t.Fatal(err)
		}
		if d := time.Since(start); d > maxSubmit {
			maxSubmit = d
		}
	}
	// Submit+Flush must never have blocked on the stalled client. The
	// bound is generous: the work is encoding ~1 MiB, not waiting.
	if maxSubmit > 2*time.Second {
		t.Errorf("Submit/Flush stalled for %v behind a dead client", maxSubmit)
	}

	// The stalled client gets evicted...
	deadline := time.Now().Add(10 * time.Second)
	for srv.Stats().Evicted == 0 {
		if time.Now().After(deadline) {
			t.Fatal("stalled client never evicted")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// ...and the healthy viewer still converges.
	want := s.Display().Screen().Hash()
	deadline = time.Now().Add(10 * time.Second)
	for lv.Screen().Hash() != want {
		if time.Now().After(deadline) {
			t.Fatal("healthy viewer starved by the evicted one")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st := srv.Stats(); st.LiveDropped == 0 {
		t.Error("eviction without any dropped live frames counted")
	}
}

func TestSearchRPC(t *testing.T) {
	s := newSession(t, 5)
	srv := startServer(t, Options{Session: s})
	c := dialClient(t, srv)
	q := index.Query{All: []string{"remote"}}
	got, err := c.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	want, err := s.SearchIndex(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 || len(got) != len(want) {
		t.Fatalf("remote search: %d results, direct: %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Time != want[i].Time || got[i].Matches != want[i].Matches {
			t.Errorf("result %d: remote %+v, direct %+v", i, got[i], want[i])
		}
	}
	// Server-side errors come back as RemoteError.
	if _, err := c.Search(index.Query{}); err == nil {
		t.Error("empty query did not fail")
	} else {
		var re *RemoteError
		if !errors.As(err, &re) {
			t.Errorf("empty query error %T: %v", err, err)
		}
	}
	// No archive behind this daemon.
	if _, err := c.SearchArchive(q); err == nil {
		t.Error("archive search on session-only daemon did not fail")
	}
}

func TestPlaybackStream(t *testing.T) {
	s := newSession(t, 8)
	srv := startServer(t, Options{Session: s})
	c := dialClient(t, srv)

	ps, err := c.Playback(PlaybackRequest{Source: SourceSession, Mode: PlayCommands, Start: 0})
	if err != nil {
		t.Fatal(err)
	}
	if err := ps.Wait(); err != nil {
		t.Fatal(err)
	}
	// Replaying the full record must land on the session's final screen.
	if ps.Screen().Hash() != s.Display().Screen().Hash() {
		t.Error("full playback diverges from the live screen")
	}

	// A bounded window replays to the state as of its end time.
	ps, err = c.Playback(PlaybackRequest{Source: SourceSession, Mode: PlayCommands, Start: 0, End: 4 * sec})
	if err != nil {
		t.Fatal(err)
	}
	if err := ps.Wait(); err != nil {
		t.Fatal(err)
	}
	want, err := s.Browse(4 * sec)
	if err != nil {
		t.Fatal(err)
	}
	if ps.Screen().Hash() != want.Hash() {
		t.Error("windowed playback diverges from Browse at the window end")
	}

	// Keyframe mode: fast-forward screenshots only.
	ps, err = c.Playback(PlaybackRequest{Source: SourceSession, Mode: PlayKeyframes, Start: 0})
	if err != nil {
		t.Fatal(err)
	}
	if err := ps.Wait(); err != nil {
		t.Fatal(err)
	}
	if ps.Screenshots() < 2 {
		t.Errorf("keyframe playback sent %d screenshots", ps.Screenshots())
	}
	if ps.Commands() != 0 {
		t.Errorf("keyframe playback sent %d commands", ps.Commands())
	}
}

func TestPlaybackFromEmptyRecordFails(t *testing.T) {
	s := core.NewSession(core.Config{})
	srv := startServer(t, Options{Session: s})
	c := dialClient(t, srv)
	if _, err := c.Playback(PlaybackRequest{Source: SourceSession}); err == nil {
		t.Error("playback over an empty record did not fail")
	}
}

func TestStatsRPCAndInput(t *testing.T) {
	s := newSession(t, 3)
	srv := startServer(t, Options{Session: s})
	c := dialClient(t, srv)
	if err := c.SendKey(s.Clock().Now(), 'x', true); err != nil {
		t.Fatal(err)
	}
	if err := c.SendPointerMove(s.Clock().Now(), 10, 20); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Search(index.Query{All: []string{"remote"}}); err != nil {
		t.Fatal(err)
	}
	// Input frames race the stats request; poll until counted.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, cs, err := c.ServerStats()
		if err != nil {
			t.Fatal(err)
		}
		if st.InputEvents >= 2 && st.Searches >= 1 && cs.Requests >= 1 && st.ActiveClients == 1 {
			if cs.ID == 0 {
				t.Error("client stats missing connection id")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stats never converged: %+v %+v", st, cs)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestArchiveDaemon(t *testing.T) {
	s := newSession(t, 6)
	dir := t.TempDir()
	if err := s.SaveArchive(dir); err != nil {
		t.Fatal(err)
	}
	a, err := core.OpenArchive(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv := startServer(t, Options{Archive: a})
	c := dialClient(t, srv)
	if c.HasSession() || !c.HasArchive() {
		t.Errorf("hello flags: session %v archive %v", c.HasSession(), c.HasArchive())
	}
	// Live attach must fail cleanly.
	if _, err := c.AttachLive(); err == nil {
		t.Error("live attach on archive-only daemon did not fail")
	}
	res, err := c.SearchArchive(index.Query{All: []string{"remote"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 {
		t.Error("no archive search results")
	}
	ps, err := c.Playback(PlaybackRequest{Source: SourceArchive, Mode: PlayCommands})
	if err != nil {
		t.Fatal(err)
	}
	if err := ps.Wait(); err != nil {
		t.Fatal(err)
	}
	if ps.Screen() == nil {
		t.Fatal("archive playback produced no screen")
	}
}

func TestGracefulShutdownNotifiesClients(t *testing.T) {
	s := newSession(t, 2)
	srv := startServer(t, Options{Session: s, DrainTimeout: 2 * time.Second})
	c := dialClient(t, srv)
	lv, err := c.AttachLive()
	if err != nil {
		t.Fatal(err)
	}
	if err := lv.WaitScreen(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	// The client learns it was a graceful shutdown, not a dropped conn.
	deadline := time.Now().Add(5 * time.Second)
	for !errors.Is(c.Err(), ErrShutdown) {
		if time.Now().After(deadline) {
			t.Fatalf("client error %v, want ErrShutdown", c.Err())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := lv.Err(); !errors.Is(err, ErrShutdown) {
		t.Errorf("live view error %v, want ErrShutdown", err)
	}
	if _, err := c.Search(index.Query{All: []string{"x"}}); !errors.Is(err, ErrShutdown) {
		t.Errorf("post-shutdown search error %v, want ErrShutdown", err)
	}
}

func TestServerCloseIdempotentAndFastWithIdleClients(t *testing.T) {
	s := newSession(t, 1)
	srv := startServer(t, Options{Session: s, DrainTimeout: 5 * time.Second})
	for i := 0; i < 4; i++ {
		dialClient(t, srv)
	}
	start := time.Now()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 3*time.Second {
		t.Errorf("graceful close of idle clients took %v", d)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestConnFailpointInjectsClientVisibleErrors(t *testing.T) {
	defer failpoint.Reset()
	s := newSession(t, 3)
	srv := startServer(t, Options{Session: s, DrainTimeout: 300 * time.Millisecond})

	// The failpoint's byte counter spans the conn's reads and writes:
	// the handshake moves well under 256 bytes, so it survives, and the
	// search traffic crosses the boundary within a few requests.
	failpoint.Arm("remote/conn", failpoint.Policy{Mode: failpoint.ModeError, AfterBytes: 256})
	c, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatalf("handshake should survive the byte budget: %v", err)
	}
	defer c.Close()
	var opErr error
	for i := 0; i < 10 && opErr == nil; i++ {
		_, opErr = c.Search(index.Query{All: []string{"remote"}})
	}
	if opErr == nil {
		t.Fatal("no error surfaced through an injected conn fault")
	}
	if !errors.Is(opErr, ErrConnClosed) && !errors.Is(opErr, ErrShutdown) {
		t.Errorf("injected fault surfaced as %v, want wrapped ErrConnClosed", opErr)
	}
	failpoint.Reset()

	// The daemon itself survives: a fresh client works.
	c2 := dialClient(t, srv)
	if _, err := c2.Search(index.Query{All: []string{"remote"}}); err != nil {
		t.Fatalf("daemon unhealthy after injected conn fault: %v", err)
	}
}

func TestConcurrentMixedWorkloads(t *testing.T) {
	s := newSession(t, 6)
	srv := startServer(t, Options{Session: s})
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial(srv.Addr().String())
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			lv, err := c.AttachLive()
			if err != nil {
				errs <- err
				return
			}
			if err := lv.WaitScreen(10 * time.Second); err != nil {
				errs <- err
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial(srv.Addr().String())
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for j := 0; j < 5; j++ {
				if _, err := c.Search(index.Query{All: []string{"remote"}}); err != nil {
					errs <- err
					return
				}
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial(srv.Addr().String())
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			ps, err := c.Playback(PlaybackRequest{Source: SourceSession, Mode: PlayCommands})
			if err != nil {
				errs <- err
				return
			}
			if err := ps.Wait(); err != nil {
				errs <- err
			}
		}()
	}
	flushDone := make(chan struct{})
	go func() {
		defer close(flushDone)
		for i := 0; i < 50; i++ {
			s.Display().Submit(display.SolidFill(s.Clock().Now(),
				display.NewRect(i%800, i%600, 50, 50), display.Pixel(i)))
			s.Display().Flush()
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()
	<-flushDone
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// failingWrites is a client transport whose writes start failing with a
// broken pipe once broken is set.
type failingWrites struct {
	net.Conn
	mu     sync.Mutex
	broken bool
}

func (f *failingWrites) Write(p []byte) (int, error) {
	f.mu.Lock()
	broken := f.broken
	f.mu.Unlock()
	if broken {
		return 0, &net.OpError{Op: "write", Net: "tcp", Err: errors.New("broken pipe")}
	}
	return f.Conn.Write(p)
}

// TestWriteFailureWrapsConnClosed breaks the transport under a live
// client: the next request fails on its own write, before the
// demultiplexer notices anything, and must still surface as
// ErrConnClosed with the transport error kept in the chain.
func TestWriteFailureWrapsConnClosed(t *testing.T) {
	s := newSession(t, 1)
	srv := startServer(t, Options{Session: s})
	nc, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	fw := &failingWrites{Conn: nc}
	c, err := NewClient(fw)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fw.mu.Lock()
	fw.broken = true
	fw.mu.Unlock()
	_, err = c.Search(index.Query{All: []string{"remote"}})
	var opErr *net.OpError
	if !errors.Is(err, ErrConnClosed) || !errors.As(err, &opErr) {
		t.Errorf("write failure surfaced as %v, want ErrConnClosed wrapping the transport error", err)
	}
}
