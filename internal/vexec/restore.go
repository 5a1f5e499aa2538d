package vexec

import (
	"fmt"
	"sort"

	"dejaview/internal/simclock"
)

// RestoreOptions tune a revive.
type RestoreOptions struct {
	// DemandPaging revives without reading memory pages up front: pages
	// fault in from the checkpoint images on first touch. The paper
	// names this as the improvement for uncached revive latency ("the
	// current revive implementation requires reading in all necessary
	// checkpoint data into memory before reviving", §6).
	DemandPaging bool
}

// RestoreResult reports one revive operation (Figure 7).
type RestoreResult struct {
	Container *Container
	Image     *Image
	// Latency is the end-to-end revive time from "Take me back" to a
	// usable session.
	Latency simclock.Time
	// BytesRead is the checkpoint data read from storage, across the
	// whole incremental chain consulted.
	BytesRead int64
	// ImagesRead is the number of checkpoint files accessed.
	ImagesRead int
	// Cached reports whether every image read was page-cache resident.
	Cached bool
	// PagesRestored counts memory pages reinstated eagerly.
	PagesRestored int
	// LazyPages counts pages left to demand paging.
	LazyPages int
	// SocketsReset counts external stateful connections dropped.
	SocketsReset int
}

// Restore revives the session recorded by checkpoint counter into a new
// container created over restoredFS (the union view the core assembled
// from the checkpoint's file-system snapshot). It implements §5.2:
// create the virtual execution environment, rebuild the process forest,
// reinstate memory by walking the incremental chain, restore files and
// sockets under the socket policy, and leave the network disabled.
//
// The kernel clock advances by the revive latency.
func (ck *Checkpointer) Restore(counter uint64, restoredFS FileSystem) (*RestoreResult, error) {
	return ck.RestoreOpts(counter, restoredFS, RestoreOptions{})
}

// RestoreOpts is Restore with tuning options.
func (ck *Checkpointer) RestoreOpts(counter uint64, restoredFS FileSystem, opts RestoreOptions) (*RestoreResult, error) {
	ck.mu.Lock()
	defer ck.mu.Unlock()
	img, err := ck.imageLocked(counter)
	if err != nil {
		return nil, err
	}
	k := ck.cont.kernel
	res := &RestoreResult{Image: img, Cached: true}

	// Step 1: a fresh virtual execution environment, network disabled.
	nc := k.NewContainer(restoredFS)
	nc.netEnabled = false
	res.Container = nc

	// Collect the newest version of every page along the incremental
	// chain, stopping at (and including) the most recent full image.
	pageMap, chain := collectPages(img)
	// Lazily opened chains demand-load page bytes now — only the pages
	// the consulted chain actually references, which is what makes an
	// archive open cheaper than decoding every page. Fetching in payload
	// order walks the compressed blocks front to back, so each block
	// decodes once even when the chain outgrows the block cache.
	if len(ck.lazyIdx) > 0 {
		var lazy []*page
		for _, m := range pageMap {
			for _, pg := range m {
				if pg.data == nil {
					lazy = append(lazy, pg)
				}
			}
		}
		sort.Slice(lazy, func(i, j int) bool { return ck.lazyIdx[lazy[i]] < ck.lazyIdx[lazy[j]] })
		if err := ck.materializeLocked(lazy); err != nil {
			return nil, err
		}
	}
	for _, ci := range chain {
		// Demand paging reads only process metadata up front; the page
		// payload streams in on faults.
		readBytes := ci.TotalBytes()
		if opts.DemandPaging {
			readBytes = ci.MetaBytes
		}
		res.BytesRead += readBytes
		res.ImagesRead++
		if !ci.cached {
			res.Cached = false
		}
		res.Latency += ck.costs.readTime(readBytes, ci.cached)
		if !ci.cached {
			res.Latency += ck.costs.Seek
			if !opts.DemandPaging {
				ci.cached = true // subsequent revives find it cached
			}
		}
	}

	// Step 3: recreate the process forest and restore per-process state.
	k.mu.Lock()
	byPID := make(map[PID]*Process, len(img.Procs))
	for _, pi := range forestOrder(img.Procs) {
		p := &Process{
			container: nc,
			pid:       pi.PID,
			ppid:      pi.PPID,
			name:      pi.Name,
			state:     pi.State,
			threads:   pi.Threads,
			tracer:    pi.Tracer,
			mem:       newAddressSpace(&k.memGen),
			files:     make(map[int]*OpenFile),
			sockets:   make(map[int]*Socket),
			nextFD:    3,
			regs:      pi.Regs,
			creds:     pi.Creds,
			prio:      pi.Priority,
			pending:   pi.Pending,
			blocked:   pi.Blocked,
		}
		nc.procs[pi.PID] = p
		if pi.PID >= nc.nextPID {
			nc.nextPID = pi.PID + 1
		}
		byPID[pi.PID] = p

		// Memory layout first, then page contents.
		for _, ri := range pi.Regions {
			r := &Region{
				start:  ri.Start,
				length: ri.Length,
				perms:  ri.Perms,
				pages:  make([]*page, ri.Length/PageSize),
				wp:     make([]bool, ri.Length/PageSize),
			}
			p.mem.insertRegion(r)
			p.mem.stats.Mapped += ri.Length
			if end := ri.Start + ri.Length; end > p.mem.nextMap {
				p.mem.nextMap = alignUp(end) + PageSize
			}
		}
		for addr, pg := range pageMap[pi.PID] {
			if r, _ := p.mem.regionAt(addr); r != nil {
				idx := (addr - r.start) / PageSize
				if opts.DemandPaging {
					if r.lazy == nil {
						r.lazy = make(map[int]*page)
					}
					r.lazy[int(idx)] = pg
					p.mem.stats.LazyResident++
					res.LazyPages++
				} else {
					r.pages[idx] = pg // immutable pages are shared safely
					res.PagesRestored++
				}
			}
		}

		// Open files: plain files reopen by name; unlinked files reopen
		// through their relink path (then vanish again) or from saved
		// image data.
		for _, fi := range pi.Files {
			of := &OpenFile{FD: fi.FD, Path: fi.Path, Offset: fi.Offset, Unlinked: fi.Unlinked}
			if fi.Unlinked {
				switch {
				case fi.RelinkPath != "":
					if data, err := restoredFS.ReadFile(fi.RelinkPath); err == nil {
						of.saved = data
						// Immediately unlink the relink name, restoring
						// the pre-checkpoint namespace (§5.1.2).
						_ = restoredFS.Remove(fi.RelinkPath)
					}
				default:
					of.saved = append([]byte(nil), fi.SavedData...)
				}
			}
			p.files[fi.FD] = of
			if fi.FD >= p.nextFD {
				p.nextFD = fi.FD + 1
			}
		}

		// Sockets under the §5.2 policy.
		for _, si := range pi.Sockets {
			s := &Socket{
				FD:         si.FD,
				Proto:      si.Proto,
				LocalAddr:  si.LocalAddr,
				RemoteAddr: si.RemoteAddr,
				State:      si.State,
			}
			if si.Proto == ProtoTCP && s.External() && si.State == SockEstablished {
				s.State = SockReset
				res.SocketsReset++
			}
			p.sockets[si.FD] = s
			if si.FD >= p.nextFD {
				p.nextFD = si.FD + 1
			}
		}
	}
	_ = byPID
	k.mu.Unlock()

	res.Latency += simclock.Time(len(img.Procs))*ck.costs.PerProcRestore +
		simclock.Time(res.PagesRestored)*ck.costs.PerPageRestore
	k.clock.Advance(res.Latency)
	return res, nil
}

// collectPages walks the chain from img back to its nearest full
// ancestor, returning the newest page per (pid, addr) and the list of
// images consulted (target first).
func collectPages(img *Image) (map[PID]map[uint64]*page, []*Image) {
	pages := make(map[PID]map[uint64]*page)
	var chain []*Image
	for ci := img; ci != nil; ci = ci.Parent {
		chain = append(chain, ci)
		for _, ip := range ci.pages {
			m := pages[ip.pid]
			if m == nil {
				m = make(map[uint64]*page)
				pages[ip.pid] = m
			}
			// Newest wins: earlier chain entries are newer.
			if _, ok := m[ip.addr]; !ok {
				m[ip.addr] = ip.pg
			}
		}
		if ci.Full {
			break
		}
	}
	return pages, chain
}

// forestOrder sorts process images parents-before-children so the forest
// can be created in one pass.
func forestOrder(procs []ProcImage) []ProcImage {
	byPID := make(map[PID]ProcImage, len(procs))
	for _, pi := range procs {
		byPID[pi.PID] = pi
	}
	var out []ProcImage
	visited := make(map[PID]bool, len(procs))
	var visit func(pi ProcImage)
	visit = func(pi ProcImage) {
		if visited[pi.PID] {
			return
		}
		if parent, ok := byPID[pi.PPID]; ok && pi.PPID != pi.PID {
			visit(parent)
		}
		visited[pi.PID] = true
		out = append(out, pi)
	}
	sorted := append([]ProcImage(nil), procs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].PID < sorted[j].PID })
	for _, pi := range sorted {
		visit(pi)
	}
	return out
}

// Validate checks an image for internal consistency (used by tests and
// the core before reviving).
func (im *Image) Validate() error {
	seen := make(map[PID]bool, len(im.Procs))
	for _, pi := range im.Procs {
		if seen[pi.PID] {
			return fmt.Errorf("vexec: image %d: duplicate pid %d", im.Counter, pi.PID)
		}
		seen[pi.PID] = true
	}
	for _, pi := range im.Procs {
		if pi.PPID != 0 && !seen[pi.PPID] {
			return fmt.Errorf("vexec: image %d: pid %d has unknown parent %d",
				im.Counter, pi.PID, pi.PPID)
		}
	}
	for _, ip := range im.pages {
		if !seen[ip.pid] {
			return fmt.Errorf("vexec: image %d: page for unknown pid %d", im.Counter, ip.pid)
		}
		if ip.addr%PageSize != 0 {
			return fmt.Errorf("vexec: image %d: unaligned page %#x", im.Counter, ip.addr)
		}
	}
	return nil
}
