package vexec

import (
	"bytes"
	"errors"
	"testing"

	"dejaview/internal/lfs"
	"dejaview/internal/simclock"
	"dejaview/internal/unionfs"
)

// newCkptSession builds a session with a checkpointer over it.
func newCkptSession(t *testing.T, fullEvery int) (*Container, *lfs.FS, *Checkpointer, *simclock.Clock) {
	t.Helper()
	clk := simclock.New()
	k := NewKernel(clk)
	fs := lfs.New()
	c := k.NewContainer(fs)
	c.SetNetworkEnabled(true)
	ck := NewCheckpointer(c, fs, fs, DefaultCostModel(), fullEvery)
	return c, fs, ck, clk
}

func TestCheckpointBasic(t *testing.T) {
	c, _, ck, _ := newCkptSession(t, 10)
	p, _ := c.Spawn(0, "app")
	addr, _ := p.Mem().Mmap(4*PageSize, PermRead|PermWrite)
	if err := p.Mem().Write(addr, []byte("state one")); err != nil {
		t.Fatal(err)
	}
	res, err := ck.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	img := res.Image
	if img.Counter != 1 || !img.Full {
		t.Errorf("first image: counter=%d full=%v", img.Counter, img.Full)
	}
	if img.Pages() != 1 {
		t.Errorf("pages = %d, want 1 (only one live page)", img.Pages())
	}
	if len(img.Procs) != 1 || img.Procs[0].Name != "app" {
		t.Errorf("procs = %+v", img.Procs)
	}
	if err := img.Validate(); err != nil {
		t.Error(err)
	}
	// Processes resumed.
	if p.State() != StateRunning {
		t.Errorf("state after checkpoint = %v", p.State())
	}
}

func TestCheckpointDowntimeBreakdown(t *testing.T) {
	c, _, ck, _ := newCkptSession(t, 10)
	p, _ := c.Spawn(0, "app")
	addr, _ := p.Mem().Mmap(64*PageSize, PermRead|PermWrite)
	for i := uint64(0); i < 64; i++ {
		if err := p.Mem().Write(addr+i*PageSize, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	res, err := ck.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if res.Downtime() != res.Quiesce+res.Capture+res.FSSnapshot {
		t.Error("downtime decomposition wrong")
	}
	if res.Downtime() >= 10*simclock.Millisecond {
		t.Errorf("downtime = %v, want < 10ms for a small app (paper's bound)", res.Downtime())
	}
	if res.Writeback == 0 {
		t.Error("writeback should cost time")
	}
	if res.Total() <= res.Downtime() {
		t.Error("total should include overlapped phases")
	}
}

func TestIncrementalCheckpointsShrink(t *testing.T) {
	c, _, ck, _ := newCkptSession(t, 100)
	p, _ := c.Spawn(0, "app")
	addr, _ := p.Mem().Mmap(128*PageSize, PermRead|PermWrite)
	for i := uint64(0); i < 128; i++ {
		if err := p.Mem().Write(addr+i*PageSize, []byte{1}); err != nil {
			t.Fatal(err)
		}
	}
	full, err := ck.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if full.Image.Pages() != 128 {
		t.Fatalf("full pages = %d", full.Image.Pages())
	}
	// Touch 3 pages.
	for i := uint64(0); i < 3; i++ {
		if err := p.Mem().Write(addr+i*PageSize, []byte{2}); err != nil {
			t.Fatal(err)
		}
	}
	inc, err := ck.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if inc.Image.Full {
		t.Error("second checkpoint should be incremental")
	}
	if inc.Image.Pages() != 3 {
		t.Errorf("incremental pages = %d, want 3", inc.Image.Pages())
	}
	if inc.Image.TotalBytes() >= full.Image.TotalBytes() {
		t.Error("incremental should be smaller than full")
	}
	// Idle checkpoint: nothing dirty.
	idle, err := ck.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if idle.Image.Pages() != 0 {
		t.Errorf("idle checkpoint captured %d pages", idle.Image.Pages())
	}
}

func TestPeriodicFullCheckpoints(t *testing.T) {
	c, _, ck, _ := newCkptSession(t, 4)
	p, _ := c.Spawn(0, "app")
	addr, _ := p.Mem().Mmap(PageSize, PermRead|PermWrite)
	for i := 0; i < 9; i++ {
		if err := p.Mem().Write(addr, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		if _, err := ck.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	st := ck.Stats()
	// fullEvery=4: checkpoints 1, 5, 9 are full.
	if st.FullCheckpoints != 3 {
		t.Errorf("FullCheckpoints = %d, want 3", st.FullCheckpoints)
	}
	if st.Checkpoints != 9 {
		t.Errorf("Checkpoints = %d", st.Checkpoints)
	}
}

func TestCheckpointCOWConsistency(t *testing.T) {
	// State captured at checkpoint time must be immune to writes that
	// happen right after resume (deferred writeback correctness).
	c, fs, ck, _ := newCkptSession(t, 10)
	p, _ := c.Spawn(0, "app")
	addr, _ := p.Mem().Mmap(PageSize, PermRead|PermWrite)
	if err := p.Mem().Write(addr, []byte("before")); err != nil {
		t.Fatal(err)
	}
	res, err := ck.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	// Session resumes and immediately overwrites.
	if err := p.Mem().Write(addr, []byte("after!")); err != nil {
		t.Fatal(err)
	}
	// Restore from the checkpoint and inspect memory.
	view, err := fs.At(res.Image.FSEpoch)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := ck.Restore(res.Image.Counter, unionfs.New(view))
	if err != nil {
		t.Fatal(err)
	}
	rp, err := rr.Container.Process(p.PID())
	if err != nil {
		t.Fatal(err)
	}
	got, err := rp.Mem().Read(addr, 6)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "before" {
		t.Errorf("restored memory = %q, want pre-resume state", got)
	}
}

func TestCheckpointFSCounterAssociation(t *testing.T) {
	c, fs, ck, _ := newCkptSession(t, 10)
	if _, err := c.Spawn(0, "app"); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/doc", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	r1, err := ck.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/doc", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if _, err := ck.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// The FS state bound to checkpoint 1 must be v1.
	epoch, err := fs.EpochForCheckpoint(r1.Image.Counter)
	if err != nil {
		t.Fatal(err)
	}
	if epoch != r1.Image.FSEpoch {
		t.Errorf("epoch mismatch: %d vs %d", epoch, r1.Image.FSEpoch)
	}
	v, _ := fs.At(epoch)
	data, _ := v.ReadFile("/doc")
	if string(data) != "v1" {
		t.Errorf("checkpoint-1 FS sees %q", data)
	}
}

func TestPreSnapshotReducesStopWork(t *testing.T) {
	// Dirty FS data flushed in the pre-snapshot must not count against
	// the stop-window FS snapshot.
	c, fs, ck, _ := newCkptSession(t, 10)
	if _, err := c.Spawn(0, "app"); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/big", make([]byte, 256*1024)); err != nil {
		t.Fatal(err)
	}
	res, err := ck.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if res.PreSnapshot == 0 {
		t.Error("pre-snapshot should have flushed the dirty data")
	}
	if res.FSSnapshot > ck.costs.FSSnapshotBase {
		t.Errorf("stop-window snapshot = %v, want only the base cost (%v)",
			res.FSSnapshot, ck.costs.FSSnapshotBase)
	}
}

func TestPreQuiesceWaitsForUninterruptible(t *testing.T) {
	c, _, ck, clk := newCkptSession(t, 10)
	p, _ := c.Spawn(0, "dd")
	p.EnterUninterruptible(clk.Now() + 30*simclock.Millisecond)
	res, err := ck.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if res.PreQuiesce < 30*simclock.Millisecond {
		t.Errorf("PreQuiesce = %v, want >= 30ms", res.PreQuiesce)
	}
	// After the wait, the process must have been stopped and resumed.
	if p.State() != StateRunning {
		t.Errorf("state = %v", p.State())
	}
}

func TestPreQuiesceCapped(t *testing.T) {
	c, _, ck, clk := newCkptSession(t, 10)
	p, _ := c.Spawn(0, "dd")
	p.EnterUninterruptible(clk.Now() + 10*simclock.Second) // way beyond cap
	res, err := ck.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if res.PreQuiesce != ck.costs.PreQuiesceMax {
		t.Errorf("PreQuiesce = %v, want cap %v", res.PreQuiesce, ck.costs.PreQuiesceMax)
	}
}

func TestUnlinkedFileRelinkedIntoSnapshot(t *testing.T) {
	c, fs, ck, _ := newCkptSession(t, 10)
	if err := fs.WriteFile("/tmp.work", []byte("in flight")); err != nil {
		t.Fatal(err)
	}
	p, _ := c.Spawn(0, "app")
	fd, _ := p.Open("/tmp.work")
	if err := p.Unlink(fd); err != nil {
		t.Fatal(err)
	}
	res, err := ck.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if ck.Stats().Relinks != 1 {
		t.Errorf("Relinks = %d, want 1", ck.Stats().Relinks)
	}
	// The snapshot must contain the relinked contents.
	view, err := fs.At(res.Image.FSEpoch)
	if err != nil {
		t.Fatal(err)
	}
	fi := res.Image.Procs[0].Files[0]
	if fi.RelinkPath == "" {
		t.Fatal("no relink path recorded")
	}
	data, err := view.ReadFile(fi.RelinkPath)
	if err != nil || string(data) != "in flight" {
		t.Errorf("snapshot relink read = %q, %v", data, err)
	}
	if len(fi.SavedData) != 0 {
		t.Error("relinked file should not be saved into the image")
	}
}

func TestUnlinkedFileFallbackWithoutRelinker(t *testing.T) {
	clk := simclock.New()
	k := NewKernel(clk)
	fs := lfs.New()
	c := k.NewContainer(fs)
	ck := NewCheckpointer(c, fs, nil, DefaultCostModel(), 10) // no relinker
	if err := fs.WriteFile("/tmp.work", []byte("fallback data")); err != nil {
		t.Fatal(err)
	}
	p, _ := c.Spawn(0, "app")
	fd, _ := p.Open("/tmp.work")
	if err := p.Unlink(fd); err != nil {
		t.Fatal(err)
	}
	res, err := ck.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	fi := res.Image.Procs[0].Files[0]
	if fi.RelinkPath != "" {
		t.Error("relink path without a relinker")
	}
	if string(fi.SavedData) != "fallback data" {
		t.Errorf("SavedData = %q", fi.SavedData)
	}
}

func TestCheckpointCompressedSmallerForText(t *testing.T) {
	c, _, ck, _ := newCkptSession(t, 10)
	p, _ := c.Spawn(0, "app")
	addr, _ := p.Mem().Mmap(64*PageSize, PermRead|PermWrite)
	text := bytes.Repeat([]byte("the quick brown fox "), PageSize/20+1)
	for i := uint64(0); i < 64; i++ {
		if err := p.Mem().Write(addr+i*PageSize, text[:PageSize]); err != nil {
			t.Fatal(err)
		}
	}
	res, err := ck.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if res.Image.CompressedBytes() >= res.Image.MemBytes/2 {
		t.Errorf("compressed %d vs raw %d: text should compress well",
			res.Image.CompressedBytes(), res.Image.MemBytes)
	}
}

func TestNaiveCheckpointMuchSlower(t *testing.T) {
	// The ablation: the unoptimized stop-and-copy path's downtime must
	// dwarf the optimized one on identical state.
	mk := func() (*Container, *Checkpointer) {
		clk := simclock.New()
		k := NewKernel(clk)
		fs := lfs.New()
		c := k.NewContainer(fs)
		ck := NewCheckpointer(c, fs, fs, DefaultCostModel(), 100)
		p, _ := c.Spawn(0, "app")
		addr, _ := p.Mem().Mmap(1024*PageSize, PermRead|PermWrite)
		for i := uint64(0); i < 1024; i++ {
			_ = p.Mem().Write(addr+i*PageSize, []byte{byte(i)})
		}
		return c, ck
	}
	_, ckOpt := mk()
	opt, err := ckOpt.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	_, ckNaive := mk()
	naive, err := ckNaive.CheckpointNaive()
	if err != nil {
		t.Fatal(err)
	}
	if naive.Downtime() < 10*opt.Downtime() {
		t.Errorf("naive downtime %v vs optimized %v: want >= 10x gap",
			naive.Downtime(), opt.Downtime())
	}
}

func TestLatestBefore(t *testing.T) {
	c, _, ck, clk := newCkptSession(t, 10)
	p, _ := c.Spawn(0, "app")
	addr, _ := p.Mem().Mmap(PageSize, PermRead|PermWrite)
	var times []simclock.Time
	for i := 0; i < 3; i++ {
		clk.Advance(simclock.Second)
		if err := p.Mem().Write(addr, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		r, err := ck.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		times = append(times, r.Image.Time)
	}
	img, err := ck.LatestBefore(times[1] + simclock.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if img.Counter != 2 {
		t.Errorf("LatestBefore chose %d, want 2", img.Counter)
	}
	if _, err := ck.LatestBefore(0); !errors.Is(err, ErrNoCheckpoint) {
		t.Errorf("too-early err = %v", err)
	}
	if _, err := ck.Image(99); !errors.Is(err, ErrNoCheckpoint) {
		t.Errorf("missing image err = %v", err)
	}
}

func TestBufferEstimateTracksSizes(t *testing.T) {
	c, _, ck, _ := newCkptSession(t, 100)
	p, _ := c.Spawn(0, "app")
	addr, _ := p.Mem().Mmap(256*PageSize, PermRead|PermWrite)
	for i := 0; i < 5; i++ {
		for j := uint64(0); j < 32; j++ {
			_ = p.Mem().Write(addr+j*PageSize, []byte{byte(i)})
		}
		if _, err := ck.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	st := ck.Stats()
	if st.BufferPrealloc == 0 {
		t.Error("buffer estimate never set")
	}
}
