// Package core wires DejaView's substrates into a Session: the virtual
// display server and recorder, the accessibility capture daemon and text
// index, the virtual execution environment with continuous checkpointing
// under the checkpoint policy, the snapshotting file system, and the
// browse/search/playback/revive operations of §2.
//
// The exported facade for library users is the root dejaview package,
// which re-exports this one.
package core

import (
	"errors"
	"fmt"
	"sync"

	"dejaview/internal/access"
	"dejaview/internal/display"
	"dejaview/internal/index"
	"dejaview/internal/lfs"
	"dejaview/internal/lru"
	"dejaview/internal/playback"
	"dejaview/internal/policy"
	"dejaview/internal/record"
	"dejaview/internal/simclock"
	"dejaview/internal/vexec"
)

// Config tunes a Session. Zero-value fields take the paper's defaults.
type Config struct {
	// Width, Height set the desktop resolution (default 1024×768, the
	// paper's application-benchmark resolution).
	Width, Height int
	// Record tunes display recording quality.
	Record record.Options
	// RecordScale optionally records at a different resolution than
	// displayed (w, h); zero means record at full resolution.
	RecordScaleW, RecordScaleH int
	// Policy tunes the checkpoint policy.
	Policy policy.Config
	// Costs calibrates the checkpoint/restore cost model.
	Costs vexec.CostModel
	// FullCheckpointEvery bounds incremental chains (default 100).
	FullCheckpointEvery int
	// SearchCacheSize bounds the search-result screenshot LRU cache
	// (default 32; tunable, §4.4).
	SearchCacheSize int
	// DisablePolicy checkpoints on every tick regardless of policy
	// (the paper's once-per-second benchmark configuration).
	DisablePolicy bool

	// The remaining switches turn individual recording components off,
	// for the Figure 2 overhead decomposition: display recording only,
	// checkpoint recording only, index recording only, full, or none.
	DisableDisplayRecording bool
	DisableIndexing         bool
	DisableCheckpoints      bool
}

func (c *Config) fillDefaults() {
	if c.Width == 0 {
		c.Width = 1024
	}
	if c.Height == 0 {
		c.Height = 768
	}
	if c.Record == (record.Options{}) {
		c.Record = record.DefaultOptions()
	}
	if c.Policy == (policy.Config{}) {
		c.Policy = policy.DefaultConfig()
	}
	if c.Costs == (vexec.CostModel{}) {
		c.Costs = vexec.DefaultCostModel()
	}
	if c.FullCheckpointEvery == 0 {
		c.FullCheckpointEvery = 100
	}
	if c.SearchCacheSize == 0 {
		c.SearchCacheSize = 32
	}
}

// SearchResult is one search hit: the index result plus the offscreen
// screenshots rendered at its boundaries. The Screenshot is the portal
// through which the user can glance at the match or revive the session
// there; when the query held over a contiguous period, the pair
// (Screenshot, LastScreenshot) is the paper's "first-last screenshot"
// presentation of a substream (§4.4).
type SearchResult struct {
	index.Result
	Screenshot *display.Framebuffer
	// LastScreenshot is the screen at the end of the substream; nil for
	// instantaneous results (e.g. annotations).
	LastScreenshot *display.Framebuffer
}

// Session is one DejaView desktop session: the server side of the §3
// architecture.
//
// Session is safe for concurrent use, though workloads typically drive it
// from one goroutine.
type Session struct {
	clock    *simclock.Clock
	kernel   *vexec.Kernel
	fs       *lfs.FS
	cont     *vexec.Container
	disp     *display.Server
	recorder *record.Recorder
	registry *access.Registry
	daemon   *access.Daemon
	idx      *index.Index
	ckpt     *vexec.Checkpointer
	pol      *policy.Engine
	cfg      Config

	// recordHoldsScreen reports that the display record reproduces the
	// screen exactly at any instant: recording is on, at the native
	// resolution, and logs every command as it is flushed. A revive
	// then renders the checkpointed screen from the record.
	recordHoldsScreen bool

	mu          sync.Mutex
	searchCache *lru.Cache[int64, *display.Framebuffer]
	// displayState is the snapshot fallback for sessions whose record
	// cannot reproduce the screen (recording disabled, rescaled, or
	// frequency-limited): the display server's screen saved at each
	// checkpoint, standing in for the virtual display server's process
	// state being inside the checkpointed session (§3).
	displayState map[uint64]*display.Framebuffer
	revived      []*Revived
	clipboard    string
	// input flags accumulated since the last policy decision
	kbInput, anyInput bool
	fullscreenVideo   bool
	screensaver       bool
}

// NewSession creates a session on a fresh virtual clock.
func NewSession(cfg Config) *Session {
	cfg.fillDefaults()
	clock := simclock.New()
	return newSessionWithClock(cfg, clock)
}

func newSessionWithClock(cfg Config, clock *simclock.Clock) *Session {
	kernel := vexec.NewKernel(clock)
	fs := lfs.New()
	cont := kernel.NewContainer(fs)
	cont.SetNetworkEnabled(true)

	disp := display.NewServer(clock, cfg.Width, cfg.Height)
	recW, recH := cfg.Width, cfg.Height
	var scaler *display.Scaler
	if cfg.RecordScaleW > 0 && cfg.RecordScaleH > 0 {
		recW, recH = cfg.RecordScaleW, cfg.RecordScaleH
		scaler = display.NewScaler(cfg.Width, cfg.Height, recW, recH)
	}
	rec := record.New(clock, recW, recH, cfg.Record)
	if !cfg.DisableDisplayRecording {
		disp.SetRecorder(rec, scaler)
	}

	idx := index.New()
	registry := access.NewRegistry()
	var daemon *access.Daemon
	if !cfg.DisableIndexing {
		daemon = access.NewDaemon(registry, clock, idx)
	}

	s := &Session{
		clock:        clock,
		kernel:       kernel,
		fs:           fs,
		cont:         cont,
		disp:         disp,
		recorder:     rec,
		registry:     registry,
		daemon:       daemon,
		idx:          idx,
		ckpt:         vexec.NewCheckpointer(cont, fs, fs, cfg.Costs, cfg.FullCheckpointEvery),
		pol:          policy.New(cfg.Policy),
		cfg:          cfg,
		searchCache:  lru.New[int64, *display.Framebuffer](cfg.SearchCacheSize),
		displayState: make(map[uint64]*display.Framebuffer),
		recordHoldsScreen: !cfg.DisableDisplayRecording && cfg.Record.MinLogInterval == 0 &&
			recW == cfg.Width && recH == cfg.Height,
	}
	return s
}

// Clock returns the session's time source.
func (s *Session) Clock() *simclock.Clock { return s.clock }

// Display returns the virtual display server.
func (s *Session) Display() *display.Server { return s.disp }

// Registry returns the accessibility registry applications register with.
func (s *Session) Registry() *access.Registry { return s.registry }

// Container returns the session's virtual execution environment.
func (s *Session) Container() *vexec.Container { return s.cont }

// FS returns the session's log-structured file system.
func (s *Session) FS() *lfs.FS { return s.fs }

// Index returns the text index (read-side; the daemon writes to it).
func (s *Session) Index() *index.Index { return s.idx }

// Recorder returns the display recorder.
func (s *Session) Recorder() *record.Recorder { return s.recorder }

// Checkpointer returns the checkpoint engine.
func (s *Session) Checkpointer() *vexec.Checkpointer { return s.ckpt }

// Policy returns the checkpoint policy engine.
func (s *Session) Policy() *policy.Engine { return s.pol }

// Daemon returns the text-capture daemon.
func (s *Session) Daemon() *access.Daemon { return s.daemon }

// NoteKeyboardInput records keystrokes for the policy (user input itself
// is never recorded — only its effect on the display, §2).
func (s *Session) NoteKeyboardInput() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.kbInput = true
	s.anyInput = true
}

// NotePointerInput records mouse activity for the policy.
func (s *Session) NotePointerInput() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.anyInput = true
}

// SetFullscreenVideo flags a full-screen video player for the policy.
func (s *Session) SetFullscreenVideo(on bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.fullscreenVideo = on
}

// SetScreensaver flags the screensaver for the policy.
func (s *Session) SetScreensaver(on bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.screensaver = on
}

// Tick flushes pending display output to the viewer and recorder, runs
// the checkpoint policy on the accumulated signals, and checkpoints when
// the policy says to. Workloads call it after each burst of activity.
func (s *Session) Tick() (policy.Reason, *vexec.CheckpointResult, error) {
	cmds, err := s.disp.Flush()
	if err != nil {
		return 0, nil, err
	}
	s.cont.Tick()

	// The display-activity signal is the union of the regions the flush
	// actually delivered, so no concurrent submission is miscounted.
	var damage display.Rect
	for i := range cmds {
		damage = damage.Union(cmds[i].Dst)
	}
	w, h := s.disp.Size()
	fraction := float64(damage.Intersect(display.NewRect(0, 0, w, h)).Area()) / float64(w*h)

	s.mu.Lock()
	in := policy.Input{
		Now:               s.clock.Now(),
		DamageFraction:    fraction,
		KeyboardInput:     s.kbInput,
		UserInput:         s.anyInput,
		FullscreenVideo:   s.fullscreenVideo,
		ScreensaverActive: s.screensaver,
	}
	s.kbInput, s.anyInput = false, false
	s.mu.Unlock()

	reason := s.pol.Decide(in)
	if s.cfg.DisableCheckpoints {
		return reason, nil, nil
	}
	if !s.cfg.DisablePolicy && !reason.Take() {
		return reason, nil, nil
	}
	res, err := s.Checkpoint()
	return reason, res, err
}

// Checkpoint forces a checkpoint now, regardless of policy.
//
// The virtual display server runs inside the session, so its state is
// part of every checkpoint (§3). Queued output is flushed first: the
// checkpointed screen is then exactly the record's screen at the
// checkpoint time, which is where a revive reads it from. Only under
// the snapshot fallback is the screen copied here.
func (s *Session) Checkpoint() (*vexec.CheckpointResult, error) {
	if _, err := s.disp.Flush(); err != nil {
		return nil, err
	}
	res, err := s.ckpt.Checkpoint()
	if err != nil {
		return nil, err
	}
	if !s.recordHoldsScreen {
		s.mu.Lock()
		s.displayState[res.Image.Counter] = s.disp.Screen()
		s.mu.Unlock()
	}
	return res, nil
}

// Player opens a playback engine over the session's display record.
func (s *Session) Player() *playback.Player {
	return playback.New(s.recorder.Store(), s.cfg.SearchCacheSize)
}

// SubstreamPlayer opens a player restricted to a search result's
// substream: all PVR functionality, but bounded to the portion of the
// record over which the query was satisfied (§4.4).
func (s *Session) SubstreamPlayer(r SearchResult) *playback.Player {
	s.recorder.Flush()
	p := playback.New(s.recorder.Store(), s.cfg.SearchCacheSize)
	p.SetBounds(r.Interval.Start, r.Interval.End)
	return p
}

// Browse renders the screen as of time t (the slider operation), using
// the shared screenshot cache.
func (s *Session) Browse(t simclock.Time) (*display.Framebuffer, error) {
	s.recorder.Flush()
	s.mu.Lock()
	cache := s.searchCache
	s.mu.Unlock()
	return playback.RenderAt(s.recorder.Store(), t, cache)
}

// Search runs a query over everything the user has seen and attaches a
// rendered screenshot to each result (§4.4).
func (s *Session) Search(q index.Query) ([]SearchResult, error) {
	res, err := s.idx.Search(q, s.clock.Now())
	if err != nil {
		return nil, err
	}
	return s.attachScreenshots(res)
}

// SearchIndex runs a query and returns the raw index hits — interval,
// timing, and snippet context — without rendering result screenshots.
// This is the variant the remote access service exposes as its search
// RPC: many concurrent connections can share one session handle, and
// skipping the screenshot render keeps the RPC cheap (remote clients
// fetch visuals through playback streaming instead).
func (s *Session) SearchIndex(q index.Query) ([]index.Result, error) {
	return s.idx.Search(q, s.clock.Now())
}

// SearchConjunction runs a multi-clause contextual query (§4.4).
func (s *Session) SearchConjunction(clauses []index.Query) ([]SearchResult, error) {
	res, err := s.idx.SearchConjunction(clauses, s.clock.Now())
	if err != nil {
		return nil, err
	}
	return s.attachScreenshots(res)
}

func (s *Session) attachScreenshots(res []index.Result) ([]SearchResult, error) {
	s.recorder.Flush()
	store := s.recorder.Store()
	s.mu.Lock()
	cache := s.searchCache
	s.mu.Unlock()
	out := make([]SearchResult, 0, len(res))
	for _, r := range res {
		shot, err := playback.RenderAt(store, r.Time, cache)
		if err != nil && !errors.Is(err, playback.ErrEmptyRecord) {
			return nil, fmt.Errorf("core: render result at %v: %w", r.Time, err)
		}
		sr := SearchResult{Result: r, Screenshot: shot}
		// A substream longer than an instant gets its closing frame too.
		if end := r.Interval.End - 1; end > r.Interval.Start {
			last, err := playback.RenderAt(store, end, cache)
			if err != nil && !errors.Is(err, playback.ErrEmptyRecord) {
				return nil, fmt.Errorf("core: render result end at %v: %w", end, err)
			}
			sr.LastScreenshot = last
		}
		out = append(out, sr)
	}
	return out, nil
}

// SetClipboard stores content shared among the main and revived sessions
// (§2: "the user can copy and paste content amongst her active sessions").
func (s *Session) SetClipboard(content string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.clipboard = content
}

// Clipboard reads the shared clipboard.
func (s *Session) Clipboard() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.clipboard
}
