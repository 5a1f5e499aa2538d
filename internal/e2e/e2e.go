// Package e2e drives the full DejaView pipeline end to end: a scripted
// synthetic desktop generates display commands, accessibility text
// events, memory churn, and file-system writes through a live
// core.Session; the session is archived, reopened, searched, played
// back, and revived; and a Fingerprint captures the externally visible
// end state (framebuffer hashes, index hit sets, process-forest shape)
// so tests can assert that the whole chain is equivalence-preserving —
// both on the clean path and under injected faults (internal/failpoint).
//
// The harness is a plain library (no testing dependency) so
// `dvbench -e2e` reuses the same scripted cycle as the scenario tests.
package e2e

import (
	"errors"
	"fmt"
	"sort"

	"dejaview/internal/access"
	"dejaview/internal/core"
	"dejaview/internal/display"
	"dejaview/internal/index"
	"dejaview/internal/lfs"
	"dejaview/internal/playback"
	"dejaview/internal/simclock"
	"dejaview/internal/vexec"
)

// vocab is the deterministic word stream the scripted applications type;
// queries probe for these terms.
var vocab = []string{
	"alpha", "bravo", "charlie", "delta", "echo",
	"foxtrot", "golf", "hotel", "india", "juliet",
}

// Scenario is one scripted end-to-end workload.
type Scenario struct {
	// Name identifies the scenario in test names and bench output.
	Name string
	// Steps is the number of one-second script steps.
	Steps int
	// Queries are the index probes; each must produce at least one hit
	// in a completed run.
	Queries []index.Query

	setup func(d *driver) error
	step  func(d *driver, i int) error
}

// driver holds the scripted session plus the handles the script drives.
type driver struct {
	s     *core.Session
	apps  map[string]*access.Application
	text  map[string]*access.Component
	procs map[string]*vexec.Process
	mem   map[string]uint64
	// onCheckpoint, when set, runs after every checkpoint a tick takes.
	onCheckpoint func(s *core.Session, res *vexec.CheckpointResult)
}

func word(i int) string { return vocab[i%len(vocab)] }

// app registers (once) a synthetic application with a window and an
// editable paragraph, spawning a matching process.
func (d *driver) app(name, kind string) error {
	if _, ok := d.apps[name]; ok {
		return nil
	}
	a := d.s.Registry().Register(name, kind)
	win := a.AddComponent(nil, access.RoleWindow, name+" - window", "")
	para := a.AddComponent(win, access.RoleParagraph, "", "ready")
	d.apps[name] = a
	d.text[name] = para
	p, err := d.s.Container().Spawn(0, name)
	if err != nil {
		return err
	}
	addr, err := p.Mem().Mmap(32*vexec.PageSize, vexec.PermRead|vexec.PermWrite)
	if err != nil {
		return err
	}
	d.procs[name] = p
	d.mem[name] = addr
	return nil
}

// act performs one scripted second for an application: a visible display
// change large enough to clear the 5% checkpoint-policy threshold, a
// text edit the capture daemon indexes, and a dirtied page.
func (d *driver) act(name string, i int) error {
	d.s.Registry().SetFocus(d.apps[name])
	if err := d.s.Display().Submit(display.SolidFill(0,
		display.NewRect((i*31)%512, (i*47)%640, 512, 128), display.Pixel(i*2654435761))); err != nil {
		return err
	}
	d.apps[name].SetText(d.text[name], fmt.Sprintf("%s note %s line %d", name, word(i), i))
	p := d.procs[name]
	if err := p.Mem().Write(d.mem[name]+uint64(i%32)*vexec.PageSize, []byte(word(i))); err != nil {
		return err
	}
	d.s.NoteKeyboardInput()
	return nil
}

// writeFile creates (if needed) and writes a file in the session's
// snapshotting file system.
func (d *driver) writeFile(path string, data []byte) error {
	fs := d.s.FS()
	if err := fs.MkdirAll(filepathDir(path)); err != nil {
		return err
	}
	if err := fs.Create(path); err != nil && !errors.Is(err, lfs.ErrExist) {
		return err
	}
	return fs.WriteFile(path, data)
}

// filepathDir is path.Dir for the lfs's always-slash paths.
func filepathDir(p string) string {
	for i := len(p) - 1; i > 0; i-- {
		if p[i] == '/' {
			return p[:i]
		}
	}
	return "/"
}

// tick runs the checkpoint policy and advances virtual time one second.
func (d *driver) tick() error {
	_, res, err := d.s.Tick()
	if err != nil {
		return err
	}
	if res != nil && d.onCheckpoint != nil {
		d.onCheckpoint(d.s, res)
	}
	d.s.Clock().Advance(simclock.Second)
	return nil
}

// Scenarios returns the scripted end-to-end workloads.
func Scenarios() []*Scenario {
	return []*Scenario{
		{
			Name:  "editor",
			Steps: 12,
			Queries: []index.Query{
				{All: []string{"alpha"}},
				{All: []string{"note"}, App: "editor"},
			},
			setup: func(d *driver) error { return d.app("editor", "editor") },
			step: func(d *driver, i int) error {
				if err := d.act("editor", i); err != nil {
					return err
				}
				if i%4 == 1 {
					if err := d.writeFile(fmt.Sprintf("/home/notes-%d.txt", i),
						[]byte(word(i))); err != nil {
						return err
					}
				}
				return nil
			},
		},
		{
			Name:  "desktop",
			Steps: 16,
			Queries: []index.Query{
				{All: []string{"bravo"}},
				{Any: []string{"delta", "echo"}, AppKind: "browser"},
				{AnnotatedOnly: true},
			},
			setup: func(d *driver) error {
				if err := d.app("editor", "editor"); err != nil {
					return err
				}
				return d.app("browser", "browser")
			},
			step: func(d *driver, i int) error {
				// Alternate focus between the two applications; annotate
				// one browser moment mid-run.
				name := "editor"
				if i%2 == 1 {
					name = "browser"
				}
				if err := d.act(name, i); err != nil {
					return err
				}
				if i == 7 {
					d.apps["browser"].SelectText(d.text["browser"], word(i))
					d.apps["browser"].PressAnnotationKey()
				}
				return nil
			},
		},
		{
			// ScreenTrack (arXiv 2001.10898): three visually distinct work
			// epochs across applications, then live time-machine browsing —
			// the script itself renders the thumbnail strip and re-opens
			// earlier moments, so fault matrices and round-trip tests
			// exercise the browse path, not just record/save/open.
			Name:  "screentrack",
			Steps: 18,
			Queries: []index.Query{
				{All: []string{"alpha"}},
				{All: []string{"note"}, App: "browser"},
				{AnnotatedOnly: true},
			},
			setup: func(d *driver) error {
				for _, app := range [][2]string{
					{"editor", "editor"}, {"browser", "browser"}, {"terminal", "terminal"},
				} {
					if err := d.app(app[0], app[1]); err != nil {
						return err
					}
				}
				return nil
			},
			step: func(d *driver, i int) error {
				switch {
				case i < 6: // epoch 1: writing in the editor
					if err := d.act("editor", i); err != nil {
						return err
					}
					if i%3 == 1 {
						return d.writeFile(fmt.Sprintf("/home/draft-%d.txt", i), []byte(word(i)))
					}
					return nil
				case i < 12: // epoch 2: reading in the browser
					if err := d.act("browser", i); err != nil {
						return err
					}
					if i == 8 {
						d.apps["browser"].SelectText(d.text["browser"], word(i))
						d.apps["browser"].PressAnnotationKey()
					}
					return nil
				case i < 15: // epoch 3: a build in the terminal
					return d.act("terminal", i)
				default:
					// Browse phase: scrub the session's own visual history
					// and re-open one earlier moment per step.
					thumbs, err := d.s.BrowseTimeline(16, 16, 2)
					if err != nil {
						return err
					}
					if len(thumbs) == 0 {
						return fmt.Errorf("screentrack: empty thumbnail strip at step %d", i)
					}
					view, err := d.s.ResolveThumb(thumbs[(i*5)%len(thumbs)].Index)
					if err != nil {
						return err
					}
					if view.Screen == nil {
						return fmt.Errorf("screentrack: step %d resolved to no screen", i)
					}
					return nil
				}
			},
		},
		{
			Name:  "terminal",
			Steps: 10,
			Queries: []index.Query{
				{All: []string{"charlie"}},
			},
			setup: func(d *driver) error {
				if err := d.app("terminal", "terminal"); err != nil {
					return err
				}
				// A small process tree under the shell, so the forest
				// fingerprint has real shape to preserve.
				shell := d.procs["terminal"]
				for _, child := range []string{"make", "cc"} {
					p, err := d.s.Container().Spawn(shell.PID(), child)
					if err != nil {
						return err
					}
					if _, err := p.Mem().Mmap(8*vexec.PageSize, vexec.PermRead|vexec.PermWrite); err != nil {
						return err
					}
				}
				d.s.Container().SpawnThreads(shell, 2)
				return nil
			},
			step: func(d *driver, i int) error {
				if err := d.act("terminal", i); err != nil {
					return err
				}
				return d.writeFile("/tmp/build.log", []byte(word(i)))
			},
		},
	}
}

// ScenarioByName finds a scripted scenario.
func ScenarioByName(name string) (*Scenario, error) {
	for _, sc := range Scenarios() {
		if sc.Name == name {
			return sc, nil
		}
	}
	return nil, fmt.Errorf("e2e: unknown scenario %q", name)
}

// Build runs a scenario's script against a fresh session and returns the
// session with its record, index, and checkpoint chain populated. The
// script is fully deterministic: two Build calls produce identical
// records.
func Build(sc *Scenario, cfg core.Config) (*core.Session, error) {
	return build(sc, cfg, nil)
}

// build is Build with a hook run after every checkpoint the script's
// ticks take (nil for none).
func build(sc *Scenario, cfg core.Config, onCheckpoint func(*core.Session, *vexec.CheckpointResult)) (*core.Session, error) {
	d := &driver{
		s:            core.NewSession(cfg),
		apps:         map[string]*access.Application{},
		text:         map[string]*access.Component{},
		procs:        map[string]*vexec.Process{},
		mem:          map[string]uint64{},
		onCheckpoint: onCheckpoint,
	}
	if sc.setup != nil {
		if err := sc.setup(d); err != nil {
			return nil, fmt.Errorf("e2e %s: setup: %w", sc.Name, err)
		}
	}
	for i := 0; i < sc.Steps; i++ {
		if err := sc.step(d, i); err != nil {
			return nil, fmt.Errorf("e2e %s: step %d: %w", sc.Name, i, err)
		}
		if err := d.tick(); err != nil {
			return nil, fmt.Errorf("e2e %s: tick %d: %w", sc.Name, i, err)
		}
	}
	d.s.Recorder().Flush()
	return d.s, nil
}

// System is the uniform WYSIWYS surface a fingerprint is taken over —
// the live session and the reopened archive both provide it, which is
// what lets tests assert end-state equivalence across the save/open
// boundary.
type System struct {
	Browse      func(t simclock.Time) (*display.Framebuffer, error)
	Search      func(q index.Query) ([]core.SearchResult, error)
	Player      func() *playback.Player
	Revive      func(t simclock.Time) (*vexec.Container, error)
	End         func() simclock.Time
	Size        func() (int, int)
	Checkpoints func() uint64
	// Timeline and View are the visual-history browser: the thumbnail
	// strip over the screenshot keyframes, and one thumbnail resolved to
	// its full screen, visible documents, and revival checkpoint.
	Timeline func(thumbW, thumbH, stride int) ([]playback.Thumb, error)
	View     func(i int) (*core.BrowseView, error)
}

// Live adapts a session.
func Live(s *core.Session) System {
	return System{
		Browse:   s.Browse,
		Search:   s.Search,
		Player:   s.Player,
		Timeline: s.BrowseTimeline,
		View:     s.ResolveThumb,
		Revive: func(t simclock.Time) (*vexec.Container, error) {
			rv, err := s.TakeMeBack(t)
			if err != nil {
				return nil, err
			}
			return rv.Container, nil
		},
		End:         func() simclock.Time { return s.Clock().Now() },
		Size:        s.Display().Size,
		Checkpoints: s.Checkpointer().Counter,
	}
}

// Archived adapts a reopened archive.
func Archived(a *core.Archive) System {
	return System{
		Browse:   a.Browse,
		Search:   a.Search,
		Player:   a.Player,
		Timeline: a.BrowseTimeline,
		View:     a.ResolveThumb,
		Revive: func(t simclock.Time) (*vexec.Container, error) {
			rv, err := a.TakeMeBack(t)
			if err != nil {
				return nil, err
			}
			return rv.Container, nil
		},
		End:         func() simclock.Time { return a.End },
		Size:        func() (int, int) { return a.Width, a.Height },
		Checkpoints: a.Checkpoints,
	}
}

// Fingerprint is the externally visible end state of a recorded session:
// what the user would see browsing, searching, replaying, and reviving.
// Two systems with equal fingerprints are indistinguishable through the
// WYSIWYS operations the probes exercise.
type Fingerprint struct {
	Width, Height int
	End           simclock.Time
	Checkpoints   uint64
	// ScreenHashes are framebuffer hashes browsed at fixed fractions of
	// the session duration.
	ScreenHashes []uint64
	// PlaybackHash is the frame at the end of replaying the first
	// query's first result substream.
	PlaybackHash uint64
	// Hits maps each probe query (by position) to its ordered result
	// set.
	Hits map[int][]string
	// Forest is the revived process forest at session end, sorted.
	Forest []string
	// Thumbs is the stride-2 thumbnail strip of the visual history
	// (index, display range, image hash per thumbnail).
	Thumbs []string
	// Views are the first, middle, and last thumbnails fully resolved:
	// screen hash and the visible documents.
	Views []string
	// ViewRevivals maps those thumbnails to their revival checkpoints.
	// Kept separate from Views because tier compaction drops checkpoints
	// by design, coarsening this mapping while leaving every other probe
	// bit-identical.
	ViewRevivals []string
}

// Snapshot probes sys and assembles its fingerprint.
func Snapshot(sys System, queries []index.Query) (*Fingerprint, error) {
	fp := &Fingerprint{Hits: map[int][]string{}}
	fp.Width, fp.Height = sys.Size()
	fp.End = sys.End()
	fp.Checkpoints = sys.Checkpoints()

	end := fp.End
	for _, num := range []simclock.Time{1, 2, 3} {
		fb, err := sys.Browse(end * num / 4)
		if err != nil {
			return nil, fmt.Errorf("e2e: browse %d/4: %w", num, err)
		}
		fp.ScreenHashes = append(fp.ScreenHashes, fb.Hash())
	}

	// Visual-history probes: the thumbnail strip, plus three thumbnails
	// resolved end to end (screen, visible documents, checkpoint).
	thumbs, err := sys.Timeline(16, 16, 2)
	if err != nil {
		return nil, fmt.Errorf("e2e: browse timeline: %w", err)
	}
	for _, th := range thumbs {
		fp.Thumbs = append(fp.Thumbs, fmt.Sprintf("%d@[%d,%d)#%x",
			th.Index, th.Time, th.Until, th.Image.Hash()))
	}
	for _, pick := range []int{0, len(thumbs) / 2, len(thumbs) - 1} {
		v, err := sys.View(thumbs[pick].Index)
		if err != nil {
			return nil, fmt.Errorf("e2e: resolve thumb %d: %w", thumbs[pick].Index, err)
		}
		var vis []string
		for _, it := range v.Visible {
			vis = append(vis, fmt.Sprintf("%s/%s f=%v a=%v",
				it.Item.App, it.Item.Window, it.Item.Focused, it.Annotation))
		}
		fp.Views = append(fp.Views, fmt.Sprintf("t=%d [%d,%d) #%x vis=%v",
			v.At, v.Range.Start, v.Range.End, v.Screen.Hash(), vis))
		fp.ViewRevivals = append(fp.ViewRevivals, fmt.Sprintf("t=%d ckpt=%d@%d has=%v",
			v.At, v.Checkpoint, v.CheckpointAt, v.HasCheckpoint))
	}

	var firstHit *index.Result
	for qi, q := range queries {
		res, err := sys.Search(q)
		if err != nil {
			return nil, fmt.Errorf("e2e: query %d: %w", qi, err)
		}
		for _, r := range res {
			fp.Hits[qi] = append(fp.Hits[qi], fmt.Sprintf("[%d,%d) t=%d n=%d %v",
				r.Interval.Start, r.Interval.End, r.Time, r.Matches, r.Snippets))
			if r.Screenshot == nil {
				return nil, fmt.Errorf("e2e: query %d: hit without screenshot portal", qi)
			}
		}
		if firstHit == nil && len(res) > 0 {
			firstHit = &res[0].Result
		}
	}

	if firstHit != nil {
		p := sys.Player()
		p.SetBounds(firstHit.Interval.Start, firstHit.Interval.End)
		if err := p.SeekTo(firstHit.Interval.Start); err != nil {
			return nil, fmt.Errorf("e2e: playback seek: %w", err)
		}
		if _, err := p.FastForward(firstHit.Interval.End); err != nil {
			return nil, fmt.Errorf("e2e: playback fast-forward: %w", err)
		}
		fp.PlaybackHash = p.Screen().Hash()
	}

	cont, err := sys.Revive(end)
	if err != nil {
		return nil, fmt.Errorf("e2e: revive: %w", err)
	}
	procs := cont.Processes()
	for _, p := range procs {
		fp.Forest = append(fp.Forest, fmt.Sprintf("%d/%d %s threads=%d state=%v",
			p.PID(), p.PPID(), p.Name(), p.Threads(), p.State()))
	}
	sort.Strings(fp.Forest)
	return fp, nil
}
