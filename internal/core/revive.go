package core

import (
	"errors"
	"fmt"

	"dejaview/internal/display"
	"dejaview/internal/failpoint"
	"dejaview/internal/playback"
	"dejaview/internal/simclock"
	"dejaview/internal/unionfs"
	"dejaview/internal/vexec"
)

// Revive errors.
var ErrNothingToRevive = errors.New("core: no checkpoint at or before the requested time")

// Revived is one revived session: a live desktop state recreated from a
// checkpoint, running in its own container over its own branchable file
// system, with its own display server, viewed in a new viewer window
// (§2, §5.2).
type Revived struct {
	parent *Session
	// Container is the revived virtual execution environment.
	Container *vexec.Container
	// Union is the branch joining the checkpoint's read-only snapshot
	// with the session's writable layer.
	Union *unionfs.Union
	// Display is the revived session's own display server, restored to
	// the checkpointed screen contents.
	Display *display.Server
	// Restore reports the revive operation's cost.
	Restore *vexec.RestoreResult
	// Checkpointer lets the revived session be continuously
	// checkpointed and later revived again (§5.2).
	Checkpointer *vexec.Checkpointer
	// At is the checkpoint time the session was revived from.
	At simclock.Time
}

// TakeMeBack revives the session as of display-record time t: it finds
// the last checkpoint at or before t, restores the file-system view bound
// to it, recreates the process forest, and hands back a live session.
// The revived desktop may differ slightly from the static display record
// since checkpoints trail the display by up to the checkpoint interval
// (§5.2).
func (s *Session) TakeMeBack(t simclock.Time) (*Revived, error) {
	img, err := s.ckpt.LatestBefore(t)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrNothingToRevive, err)
	}
	return s.ReviveCheckpoint(img.Counter)
}

// ReviveCheckpoint revives a specific checkpoint counter.
func (s *Session) ReviveCheckpoint(counter uint64) (*Revived, error) {
	return s.ReviveCheckpointOpts(counter, vexec.RestoreOptions{})
}

// ReviveCheckpointOpts revives a checkpoint with restore options, e.g.
// demand paging for faster uncached revives.
func (s *Session) ReviveCheckpointOpts(counter uint64, opts vexec.RestoreOptions) (*Revived, error) {
	if err := failpoint.Inject("core/revive"); err != nil {
		return nil, fmt.Errorf("core: revive: %w", err)
	}
	img, err := s.ckpt.Image(counter)
	if err != nil {
		return nil, err
	}
	// File system state first: a writable branch over the snapshot the
	// checkpoint counter is bound to.
	view, err := s.fs.At(img.FSEpoch)
	if err != nil {
		return nil, fmt.Errorf("core: revive: snapshot %d: %w", img.FSEpoch, err)
	}
	union := unionfs.New(view)

	res, err := s.ckpt.RestoreOpts(img.Counter, union, opts)
	if err != nil {
		return nil, err
	}

	// The revived session gets its own virtual display, restored to the
	// checkpointed screen; concurrent sessions never conflict over
	// display resources (§3).
	w, h := s.disp.Size()
	disp := display.NewServer(s.clock, w, h)
	screen, err := s.checkpointScreen(img)
	if err != nil {
		return nil, err
	}
	if screen != nil {
		if err := disp.RestoreScreen(screen); err != nil {
			return nil, err
		}
	}

	rs := &Revived{
		parent:       s,
		Container:    res.Container,
		Union:        union,
		Display:      disp,
		Restore:      res,
		Checkpointer: vexec.NewCheckpointer(res.Container, union.Upper(), union.Upper(), s.cfg.Costs, s.cfg.FullCheckpointEvery),
		At:           img.Time,
	}
	s.mu.Lock()
	s.revived = append(s.revived, rs)
	s.mu.Unlock()
	return rs, nil
}

// checkpointScreen returns the screen as of checkpoint img, or nil for
// a blank one. It renders the display record at the checkpoint time —
// the same way an archived revive does — unless the session keeps the
// snapshot fallback.
func (s *Session) checkpointScreen(img *vexec.Image) (*display.Framebuffer, error) {
	if !s.recordHoldsScreen {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.displayState[img.Counter], nil
	}
	s.mu.Lock()
	cache := s.searchCache
	s.mu.Unlock()
	screen, err := playback.RenderAt(s.recorder.Store(), img.Time, cache)
	if errors.Is(err, playback.ErrEmptyRecord) {
		return nil, nil // nothing was ever drawn
	}
	if err != nil {
		return nil, fmt.Errorf("core: revive: render screen at %v: %w", img.Time, err)
	}
	return screen, nil
}

// Revived lists the currently revived sessions.
func (s *Session) Revived() []*Revived {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Revived(nil), s.revived...)
}

// CloseRevived tears a revived session down.
func (s *Session) CloseRevived(rs *Revived) {
	s.mu.Lock()
	for i, x := range s.revived {
		if x == rs {
			s.revived = append(s.revived[:i], s.revived[i+1:]...)
			break
		}
	}
	s.mu.Unlock()
	s.kernel.RemoveContainer(rs.Container)
}

// EnableNetwork re-enables network access for the whole revived session
// (§5.2: initially disabled to prevent applications from synchronizing
// with outside servers and losing data).
func (rs *Revived) EnableNetwork() {
	rs.Container.SetNetworkEnabled(true)
}

// SetAppNetworkPolicy overrides network access per application.
func (rs *Revived) SetAppNetworkPolicy(app string, allowed bool) {
	rs.Container.SetAppNetworkPolicy(app, allowed)
}

// Clipboard accesses the clipboard shared with the main session and all
// other revived sessions.
func (rs *Revived) Clipboard() string { return rs.parent.Clipboard() }

// SetClipboard writes the shared clipboard.
func (rs *Revived) SetClipboard(content string) { rs.parent.SetClipboard(content) }

// Checkpoint checkpoints the revived session (its writable layer is a
// log-structured FS, so the combination stays revivable).
func (rs *Revived) Checkpoint() (*vexec.CheckpointResult, error) {
	return rs.Checkpointer.Checkpoint()
}
