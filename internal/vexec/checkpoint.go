package vexec

import (
	"compress/flate"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"

	"dejaview/internal/lfs"
	"dejaview/internal/obs"
	"dejaview/internal/simclock"
)

// Registry instruments for the checkpoint engine. Durations are virtual
// (simclock) milliseconds, matching the paper's Figure 3 breakdown.
var (
	obsCheckpoints = obs.Default.Counter("vexec.checkpoints")
	obsDowntimeMS  = obs.Default.Histogram("vexec.checkpoint_downtime_ms", obs.LatencyBuckets...)
	obsQuiesceMS   = obs.Default.Histogram("vexec.quiesce_ms", obs.LatencyBuckets...)
)

func virtualMS(t simclock.Time) float64 {
	return t.Seconds() * 1e3
}

// Checkpoint errors.
var (
	ErrNoCheckpoint = errors.New("vexec: no such checkpoint")
)

// RegionImage is the saved layout of one memory region.
type RegionImage struct {
	Start  uint64
	Length uint64
	Perms  Perm
}

// FileImage is the saved state of one open file descriptor.
type FileImage struct {
	FD         int
	Path       string
	Offset     int64
	Unlinked   bool
	RelinkPath string // where the unlinked file was relinked pre-snapshot
	SavedData  []byte // fallback contents when no relinker was available
}

// SocketImage is the saved state of one socket.
type SocketImage struct {
	FD         int
	Proto      SockProto
	LocalAddr  string
	RemoteAddr string
	State      SockState
}

// ProcImage is the saved state of one process: run state, program name,
// scheduling parameters, credentials, pending and blocked signals, CPU
// registers, open files, sockets, and the memory layout (§5.2).
type ProcImage struct {
	PID      PID
	PPID     PID
	Name     string
	State    ProcState
	Threads  int
	Tracer   PID
	Regs     Registers
	Creds    Credentials
	Priority int
	Pending  SignalSet
	Blocked  SignalSet
	Files    []FileImage
	Sockets  []SocketImage
	Regions  []RegionImage
}

// imagePage locates one captured page within a checkpoint image.
type imagePage struct {
	pid  PID
	addr uint64
	pg   *page
}

// Image is one checkpoint: process metadata plus captured memory pages
// (all pages for a full checkpoint, only modified pages for an
// incremental one) and the associated file-system snapshot epoch.
type Image struct {
	Counter uint64
	Time    simclock.Time
	Full    bool
	Parent  *Image // previous image in the incremental chain
	FSEpoch lfs.Epoch
	Procs   []ProcImage

	pages []imagePage
	// MemBytes is the captured page payload; MetaBytes the per-process
	// metadata.
	MemBytes  int64
	MetaBytes int64

	// compressed is the estimated gzip size of the image. A live
	// checkpoint computes it after the processes resume (Phase 6); est
	// is held until then, so every reader waits on it first.
	compressed int64
	est        sync.WaitGroup

	// cached models page-cache residency for revive experiments.
	cached bool
}

// TotalBytes reports the on-disk image size.
func (im *Image) TotalBytes() int64 { return im.MemBytes + im.MetaBytes }

// CompressedBytes reports the estimated gzip size of the image, waiting
// for the overlapped estimate if it is still running.
func (im *Image) CompressedBytes() int64 {
	im.est.Wait()
	return im.compressed
}

// Pages reports the number of captured pages.
func (im *Image) Pages() int { return len(im.pages) }

// CheckpointResult is the per-checkpoint latency breakdown of Figure 3.
// Downtime — the window during which processes are stopped — is
// Quiesce + Capture + FSSnapshot; PreCheckpoint and Writeback overlap
// normal execution.
type CheckpointResult struct {
	Image *Image
	// PreSnapshot is the pre-quiesce file-system sync time.
	PreSnapshot simclock.Time
	// PreQuiesce is the time spent waiting for uninterruptible
	// processes to become signalable.
	PreQuiesce simclock.Time
	// Quiesce is the time to stop every process.
	Quiesce simclock.Time
	// Capture is the COW capture of memory and process state.
	Capture simclock.Time
	// FSSnapshot is the file-system snapshot time.
	FSSnapshot simclock.Time
	// Writeback is the deferred image write-out time.
	Writeback simclock.Time
}

// Downtime is the user-visible stall.
func (r *CheckpointResult) Downtime() simclock.Time {
	return r.Quiesce + r.Capture + r.FSSnapshot
}

// Total is the end-to-end checkpoint cost including overlapped phases.
func (r *CheckpointResult) Total() simclock.Time {
	return r.PreSnapshot + r.PreQuiesce + r.Downtime() + r.Writeback
}

// CkptStats aggregates checkpointer activity, including the per-phase
// latency sums behind Figure 3's breakdown.
type CkptStats struct {
	Checkpoints      uint64
	FullCheckpoints  uint64
	TotalBytes       int64
	CompressedBytes  int64
	TotalDowntime    simclock.Time
	MaxDowntime      simclock.Time
	Relinks          uint64
	BufferPrealloc   int64 // current preallocated buffer estimate
	BufferExpansions uint64

	TotalPreSnapshot simclock.Time
	TotalPreQuiesce  simclock.Time
	TotalQuiesce     simclock.Time
	TotalCapture     simclock.Time
	TotalFSSnapshot  simclock.Time
	TotalWriteback   simclock.Time
}

// Checkpointer continuously checkpoints one container.
//
// Checkpointer is safe for concurrent use: the paper's usage model runs
// revives (and searches over the image chain) concurrently with the
// session's ongoing once-per-second checkpointing.
type Checkpointer struct {
	mu     sync.Mutex
	cont   *Container
	snapfs SnapshotFS
	relink Relinker
	costs  CostModel
	// fullEvery forces a full checkpoint every N checkpoints (§5.1.2:
	// periodic fulls bound the incremental chain length).
	fullEvery int

	counter uint64
	lastGen uint64
	images  map[uint64]*Image
	order   []uint64
	last    *Image
	stats   CkptStats
	bufEst  int64
	recent  []int64 // recent image sizes for buffer estimation
	// estimating lists the images whose overlapped size estimate is not
	// yet folded into stats.CompressedBytes (joinEstimatesLocked).
	estimating []*Image

	// Lazy-open state (LoadImages): pages whose data has not been read
	// yet, keyed to their pool index, plus the decoded stream they are
	// read from. materializeLocked drains lazyIdx as pages are touched.
	lazyIdx     map[*page]int
	pageSrc     io.ReaderAt
	payloadBase int64
}

// NewCheckpointer creates a checkpointer over a container, its snapshot
// layer, and an optional relinker for unlinked-but-open files. fullEvery
// <= 0 defaults to 100.
func NewCheckpointer(cont *Container, snapfs SnapshotFS, relink Relinker, costs CostModel, fullEvery int) *Checkpointer {
	if fullEvery <= 0 {
		fullEvery = 100
	}
	return &Checkpointer{
		cont:      cont,
		snapfs:    snapfs,
		relink:    relink,
		costs:     costs,
		fullEvery: fullEvery,
		images:    make(map[uint64]*Image),
		bufEst:    1 << 20,
	}
}

// Costs exposes the model (benchmarks tweak it).
func (ck *Checkpointer) Costs() *CostModel { return &ck.costs }

// Checkpoint takes one coordinated, globally consistent checkpoint of the
// container using the paper's four steps — quiesce, save execution state,
// file-system snapshot, resume — with all §5.1.2 optimizations. The
// kernel clock advances by the downtime (overlapped phases do not stall
// the session).
func (ck *Checkpointer) Checkpoint() (*CheckpointResult, error) {
	ck.mu.Lock()
	defer ck.mu.Unlock()
	k := ck.cont.kernel
	res := &CheckpointResult{}
	full := ck.counter%uint64(ck.fullEvery) == 0

	// Phase 1 (overlapped): pre-snapshot file-system sync.
	flushed := ck.snapfs.Sync()
	res.PreSnapshot = ck.costs.writeTime(flushed)

	// Phase 2 (overlapped): pre-quiesce — wait for processes to be able
	// to handle signals promptly, up to PreQuiesceMax.
	res.PreQuiesce = ck.preQuiesce()

	// Phase 3 (downtime): quiesce — stop all processes.
	k.mu.Lock()
	procs := ck.liveProcsLocked()
	for _, p := range procs {
		p.signalLocked(SIGSTOP)
	}
	res.Quiesce = simclock.Time(len(procs)) * ck.costs.PerProcQuiesce

	// Phase 4 (downtime): capture process metadata and COW page refs.
	ck.counter++
	img := &Image{
		Counter: ck.counter,
		Time:    k.clock.Now(),
		Full:    full,
		Parent:  ck.last,
	}
	var regions, pages int
	maxGen := ck.lastGen
	for _, p := range procs {
		pi, relinks := ck.captureProcLocked(p, img)
		img.Procs = append(img.Procs, pi)
		ck.stats.Relinks += relinks
		regions += len(pi.Regions)
		cap := p.mem.capture(full, ck.lastGen)
		for _, cp := range cap {
			img.pages = append(img.pages, imagePage{pid: p.pid, addr: cp.addr, pg: cp.pg})
			if cp.pg.gen > maxGen {
				maxGen = cp.pg.gen
			}
		}
		pages += len(cap)
		// Arm dirty tracking for the next incremental checkpoint.
		p.mem.protectAll()
	}
	img.MemBytes = int64(pages) * PageSize
	img.MetaBytes = int64(len(img.Procs)) * 512
	res.Capture = simclock.Time(regions)*ck.costs.PerRegionCapture +
		simclock.Time(pages)*ck.costs.PerPageCapture
	k.mu.Unlock()

	// Phase 5 (downtime): file-system snapshot, bound to the counter in
	// both directions.
	epoch, rem := ck.snapfs.Snapshot()
	_ = epoch
	img.FSEpoch = ck.snapfs.TagCheckpoint(img.Counter)
	res.FSSnapshot = ck.costs.FSSnapshotBase + ck.costs.writeTime(rem)

	// Advance the clock by the downtime, then resume.
	k.clock.Advance(res.Downtime())
	ck.cont.SignalAll(SIGCONT)

	// Phase 6 (overlapped): deferred writeback from preallocated
	// buffers. COW page immutability guarantees consistency even though
	// processes already run again, so the size estimate reads the pages
	// on its own goroutine; every reader of it joins first.
	ck.startEstimateLocked(img)
	res.Writeback = ck.costs.writeTime(img.TotalBytes())
	ck.accountBuffer(img.TotalBytes())

	img.cached = true // just written: page-cache resident
	ck.images[img.Counter] = img
	ck.order = append(ck.order, img.Counter)
	ck.last = img
	ck.lastGen = maxGen
	res.Image = img

	ck.stats.Checkpoints++
	obsCheckpoints.Inc()
	obsDowntimeMS.Observe(virtualMS(res.Downtime()))
	obsQuiesceMS.Observe(virtualMS(res.Quiesce))
	if full {
		ck.stats.FullCheckpoints++
	}
	ck.stats.TotalBytes += img.TotalBytes()
	ck.stats.TotalDowntime += res.Downtime()
	if d := res.Downtime(); d > ck.stats.MaxDowntime {
		ck.stats.MaxDowntime = d
	}
	ck.stats.TotalPreSnapshot += res.PreSnapshot
	ck.stats.TotalPreQuiesce += res.PreQuiesce
	ck.stats.TotalQuiesce += res.Quiesce
	ck.stats.TotalCapture += res.Capture
	ck.stats.TotalFSSnapshot += res.FSSnapshot
	ck.stats.TotalWriteback += res.Writeback
	return res, nil
}

// preQuiesce waits (in virtual time) until every process can promptly
// handle a stop signal, or PreQuiesceMax elapses.
func (ck *Checkpointer) preQuiesce() simclock.Time {
	k := ck.cont.kernel
	k.mu.Lock()
	now := k.clock.Now()
	var wait simclock.Time
	for _, p := range ck.cont.procs {
		if p.state == StateUninterruptible {
			w := p.uninterruptibleUntil - now
			if w > wait {
				wait = w
			}
		}
	}
	k.mu.Unlock()
	if wait <= 0 {
		return 0
	}
	if wait > ck.costs.PreQuiesceMax {
		wait = ck.costs.PreQuiesceMax
	}
	k.clock.Advance(wait)
	ck.cont.Tick() // let completed operations finish
	return wait
}

// captureProcLocked snapshots one process's metadata, relinking unlinked
// open files so the coming FS snapshot preserves their contents.
func (ck *Checkpointer) captureProcLocked(p *Process, img *Image) (ProcImage, uint64) {
	state := p.state
	if state == StateStopped && p.prevState != 0 {
		// Record the pre-quiesce state so restore resumes it correctly.
		state = p.prevState
	}
	pi := ProcImage{
		PID:      p.pid,
		PPID:     p.ppid,
		Name:     p.name,
		State:    state,
		Threads:  p.threads,
		Tracer:   p.tracer,
		Regs:     p.regs,
		Creds:    p.creds,
		Priority: p.prio,
		Pending:  p.pending.Remove(SIGSTOP),
		Blocked:  p.blocked,
	}
	var relinks uint64
	for _, f := range sortedFiles(p.files) {
		fi := FileImage{
			FD:       f.FD,
			Path:     f.Path,
			Offset:   f.Offset,
			Unlinked: f.Unlinked,
		}
		if f.Unlinked {
			if ck.relink != nil && f.ino != 0 {
				relPath := fmt.Sprintf("/.dejaview/relink-%d-%d-%d", img.Counter, p.pid, f.FD)
				if err := ck.relink.MkdirAll("/.dejaview"); err == nil {
					if err := ck.relink.LinkIno(f.ino, relPath); err == nil {
						fi.RelinkPath = relPath
						relinks++
					}
				}
			}
			if fi.RelinkPath == "" {
				// No relinker: fall back to saving contents into the
				// image (the expensive path relinking avoids).
				fi.SavedData = append([]byte(nil), f.saved...)
				img.MemBytes += int64(len(fi.SavedData))
			}
		}
		pi.Files = append(pi.Files, fi)
	}
	for _, s := range sortedSockets(p.sockets) {
		pi.Sockets = append(pi.Sockets, SocketImage{
			FD:         s.FD,
			Proto:      s.Proto,
			LocalAddr:  s.LocalAddr,
			RemoteAddr: s.RemoteAddr,
			State:      s.State,
		})
	}
	for _, r := range p.mem.regions {
		pi.Regions = append(pi.Regions, RegionImage{Start: r.start, Length: r.length, Perms: r.perms})
	}
	return pi, relinks
}

func sortedFiles(m map[int]*OpenFile) []*OpenFile {
	out := make([]*OpenFile, 0, len(m))
	for _, f := range m {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].FD < out[j].FD })
	return out
}

func sortedSockets(m map[int]*Socket) []*Socket {
	out := make([]*Socket, 0, len(m))
	for _, s := range m {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].FD < out[j].FD })
	return out
}

// accountBuffer maintains the preallocated in-memory buffer estimate from
// the average of recent checkpoint sizes (§5.1.2).
func (ck *Checkpointer) accountBuffer(size int64) {
	if size > ck.bufEst {
		ck.stats.BufferExpansions++
	}
	ck.recent = append(ck.recent, size)
	if len(ck.recent) > 16 {
		ck.recent = ck.recent[1:]
	}
	var sum int64
	for _, s := range ck.recent {
		sum += s
	}
	ck.bufEst = sum / int64(len(ck.recent))
	if ck.bufEst < 1<<16 {
		ck.bufEst = 1 << 16
	}
	ck.stats.BufferPrealloc = ck.bufEst
}

// maxEstimatesInFlight bounds the backlog of overlapped size estimates
// when checkpoints outpace them (a tight checkpoint loop): the next
// checkpoint joins the oldest beyond it. Only running estimates hold a
// pooled writer; a queued one holds a goroutine stack.
const maxEstimatesInFlight = 64

// startEstimateLocked computes img's size estimate on a joined
// goroutine and queues it for folding into the stats.
func (ck *Checkpointer) startEstimateLocked(img *Image) {
	for len(ck.estimating) >= maxEstimatesInFlight {
		ck.foldEstimateLocked(ck.estimating[0])
		ck.estimating = ck.estimating[1:]
	}
	img.est.Add(1)
	go func() {
		defer img.est.Done()
		img.compressed = estimateCompressed(img)
	}()
	ck.estimating = append(ck.estimating, img)
}

// joinEstimatesLocked waits for every running size estimate and folds
// each into the stats exactly once. Stats, SaveImagesOptions and Retain
// call it before they read (or rewrite) the images.
func (ck *Checkpointer) joinEstimatesLocked() {
	for _, img := range ck.estimating {
		ck.foldEstimateLocked(img)
	}
	ck.estimating = nil
}

func (ck *Checkpointer) foldEstimateLocked(img *Image) {
	ck.stats.CompressedBytes += img.CompressedBytes()
}

// liveProcsLocked lists the container's non-zombie processes in PID
// order: img.Procs and img.pages are serialized into the image stream,
// and map iteration order would make two identical runs write different
// archive bytes.
func (ck *Checkpointer) liveProcsLocked() []*Process {
	procs := make([]*Process, 0, len(ck.cont.procs))
	for _, p := range ck.cont.procs {
		if p.state != StateZombie {
			procs = append(procs, p)
		}
	}
	sort.Slice(procs, func(i, j int) bool { return procs[i].pid < procs[j].pid })
	return procs
}

// estWriters recycles the estimator's flate writers (each holds about a
// megabyte of compressor state).
var estWriters = sync.Pool{New: func() any {
	// NewWriter fails only for an invalid level; BestSpeed is valid.
	w, _ := flate.NewWriter(io.Discard, flate.BestSpeed)
	return w
}}

// byteCounter is an io.Writer that only counts.
type byteCounter int64

func (c *byteCounter) Write(p []byte) (int, error) {
	*c += byteCounter(len(p))
	return len(p), nil
}

// estimateCompressed estimates the gzip-compressed image size by
// compressing a bounded sample of the page payload and extrapolating.
// The sample is the leading pages up to sampleCap bytes, streamed into
// the compressor page by page (BestSpeed output does not depend on how
// its input is split into writes).
func estimateCompressed(img *Image) int64 {
	const sampleCap = 32 * PageSize
	if img.MemBytes == 0 {
		return img.MetaBytes / 4
	}
	var out byteCounter
	w := estWriters.Get().(*flate.Writer)
	defer estWriters.Put(w)
	w.Reset(&out)
	raw := 0
	for _, ip := range img.pages {
		if _, err := w.Write(ip.pg.data); err != nil {
			return img.TotalBytes()
		}
		raw += len(ip.pg.data)
		if raw >= sampleCap {
			break
		}
	}
	if err := w.Close(); err != nil {
		return img.TotalBytes()
	}
	ratio := float64(out) / float64(raw)
	return int64(ratio*float64(img.MemBytes)) + img.MetaBytes/4
}

// Image returns the checkpoint image for a counter.
func (ck *Checkpointer) Image(counter uint64) (*Image, error) {
	ck.mu.Lock()
	defer ck.mu.Unlock()
	return ck.imageLocked(counter)
}

func (ck *Checkpointer) imageLocked(counter uint64) (*Image, error) {
	img, ok := ck.images[counter]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrNoCheckpoint, counter)
	}
	return img, nil
}

// Latest returns the most recent image, or nil.
func (ck *Checkpointer) Latest() *Image {
	ck.mu.Lock()
	defer ck.mu.Unlock()
	return ck.last
}

// Counter reports the number of checkpoints taken.
func (ck *Checkpointer) Counter() uint64 {
	ck.mu.Lock()
	defer ck.mu.Unlock()
	return ck.counter
}

// LatestBefore returns the last checkpoint at or before time t — the
// image "Take me back" revives for a display-record position (§5.2).
func (ck *Checkpointer) LatestBefore(t simclock.Time) (*Image, error) {
	ck.mu.Lock()
	defer ck.mu.Unlock()
	var best *Image
	for _, c := range ck.order {
		img := ck.images[c]
		if img.Time <= t && (best == nil || img.Time > best.Time) {
			best = img
		}
	}
	if best == nil {
		return nil, fmt.Errorf("%w: none at or before %v", ErrNoCheckpoint, t)
	}
	return best, nil
}

// DropCaches marks every image cold, modeling page-cache eviction for the
// uncached-revive experiments.
func (ck *Checkpointer) DropCaches() {
	ck.mu.Lock()
	defer ck.mu.Unlock()
	for _, img := range ck.images {
		img.cached = false
	}
}

// Stats returns a copy of the counters.
func (ck *Checkpointer) Stats() CkptStats {
	ck.mu.Lock()
	defer ck.mu.Unlock()
	ck.joinEstimatesLocked()
	return ck.stats
}

// CheckpointNaive is the ablation baseline without the §5.1.2
// optimizations: it synchronously syncs the file system, copies all of
// memory, and writes the image to disk while every process stays stopped.
// The paper reports this could not sustain the once-per-second rate.
func (ck *Checkpointer) CheckpointNaive() (*CheckpointResult, error) {
	ck.mu.Lock()
	defer ck.mu.Unlock()
	k := ck.cont.kernel
	res := &CheckpointResult{}

	k.mu.Lock()
	procs := ck.liveProcsLocked()
	for _, p := range procs {
		p.signalLocked(SIGSTOP)
	}
	res.Quiesce = simclock.Time(len(procs)) * ck.costs.PerProcQuiesce

	ck.counter++
	img := &Image{Counter: ck.counter, Time: k.clock.Now(), Full: true, Parent: ck.last}
	var totalBytes int64
	for _, p := range procs {
		pi, _ := ck.captureProcLocked(p, img)
		img.Procs = append(img.Procs, pi)
		cap := p.mem.capture(true, 0)
		for _, cp := range cap {
			img.pages = append(img.pages, imagePage{pid: p.pid, addr: cp.addr, pg: cp.pg})
		}
		totalBytes += int64(len(cap)) * PageSize
	}
	img.MemBytes = totalBytes
	img.MetaBytes = int64(len(img.Procs)) * 512
	k.mu.Unlock()

	// Everything happens inside the stop window: explicit memory copy,
	// file-system sync + snapshot, and synchronous image write-out.
	memCopy := simclock.Time(0)
	if ck.costs.MemCopyBW > 0 {
		memCopy = simclock.Time(totalBytes * int64(simclock.Second) / ck.costs.MemCopyBW)
	}
	res.Capture = memCopy
	flushed := ck.snapfs.Sync()
	_, rem := ck.snapfs.Snapshot()
	img.FSEpoch = ck.snapfs.TagCheckpoint(img.Counter)
	res.FSSnapshot = ck.costs.FSSnapshotBase + ck.costs.writeTime(flushed+rem)
	syncWrite := ck.costs.writeTime(img.TotalBytes())
	res.Capture += syncWrite // write-out is part of the stall

	k.clock.Advance(res.Downtime())
	ck.cont.SignalAll(SIGCONT)

	// The stop-and-copy baseline keeps the estimate in line.
	img.compressed = estimateCompressed(img)
	img.cached = true
	ck.images[img.Counter] = img
	ck.order = append(ck.order, img.Counter)
	ck.last = img
	res.Image = img
	ck.stats.Checkpoints++
	ck.stats.FullCheckpoints++
	ck.stats.TotalBytes += img.TotalBytes()
	ck.stats.TotalDowntime += res.Downtime()
	if d := res.Downtime(); d > ck.stats.MaxDowntime {
		ck.stats.MaxDowntime = d
	}
	return res, nil
}
