package vexec

// Checkpoint thinning (offline retention): the tier compactor drops
// aged checkpoints from an archived chain while keeping every surviving
// checkpoint revivable. Dropping an incremental image folds its pages
// into the nearest kept descendant (newest-wins, exactly the precedence
// collectPages applies at restore time), so the retained chain restores
// bit-identically to the original.

import "dejaview/internal/simclock"

// ImageInfo is the public summary of one checkpoint image, exposed so
// retention policy can be decided outside this package.
type ImageInfo struct {
	Counter   uint64
	Time      simclock.Time
	Full      bool
	Parent    uint64 // parent image counter, 0 for chain roots
	Pages     int    // pages referenced (not necessarily unique to this image)
	MemBytes  int64
	MetaBytes int64
}

// ImageInfos lists every checkpoint image in counter order.
func (ck *Checkpointer) ImageInfos() []ImageInfo {
	ck.mu.Lock()
	defer ck.mu.Unlock()
	infos := make([]ImageInfo, 0, len(ck.order))
	for _, c := range ck.order {
		img := ck.images[c]
		info := ImageInfo{
			Counter:   img.Counter,
			Time:      img.Time,
			Full:      img.Full,
			Pages:     len(img.pages),
			MemBytes:  img.MemBytes,
			MetaBytes: img.MetaBytes,
		}
		if img.Parent != nil {
			info.Parent = img.Parent.Counter
		}
		infos = append(infos, info)
	}
	return infos
}

// NewArchiveCheckpointer creates a checkpointer with no live container,
// for offline manipulation of an archived image chain (load, thin,
// re-save). Restore is not supported on it.
func NewArchiveCheckpointer(costs CostModel, fullEvery int) *Checkpointer {
	return NewCheckpointer(nil, nil, nil, costs, fullEvery)
}

// Retain drops every image whose counter keep() rejects, folding
// dropped incremental state into the nearest kept descendant so all
// kept checkpoints restore exactly as before. The newest image is
// always kept regardless of keep(). Counters are never reused: the
// checkpoint counter keeps its value so future checkpoints (if the
// chain is ever resumed) stay unique. Returns the number of images
// dropped.
func (ck *Checkpointer) Retain(keep func(counter uint64) bool) int {
	ck.mu.Lock()
	defer ck.mu.Unlock()
	// Folding rewrites image page lists the size estimates read.
	ck.joinEstimatesLocked()
	if len(ck.order) == 0 {
		return 0
	}
	kept := make(map[uint64]bool, len(ck.order))
	for _, c := range ck.order {
		if keep(c) {
			kept[c] = true
		}
	}
	kept[ck.order[len(ck.order)-1]] = true // newest is never dropped

	// Fold in ascending counter order: a kept image's kept ancestor has
	// already absorbed its own dropped parents, and folding stops at the
	// first kept (or full) ancestor, so each dropped image folds into
	// exactly one descendant.
	for _, c := range ck.order {
		if !kept[c] {
			continue
		}
		img := ck.images[c]
		if img.Full {
			img.Parent = nearestKept(img.Parent, kept)
			continue
		}
		procs := make(map[PID]bool, len(img.Procs))
		for i := range img.Procs {
			procs[img.Procs[i].PID] = true
		}
		have := make(map[pageKey]bool, len(img.pages))
		for _, ip := range img.pages {
			have[pageKey{ip.pid, ip.addr}] = true
		}
		anc := img.Parent
		sawFull := false
		for anc != nil && !kept[anc.Counter] {
			for _, ip := range anc.pages {
				k := pageKey{ip.pid, ip.addr}
				// Newest version wins; pages of processes that exited
				// before this image are unreachable from it (restore
				// only consults pids in the image's forest).
				if have[k] || !procs[ip.pid] {
					continue
				}
				have[k] = true
				img.pages = append(img.pages, ip)
			}
			if anc.Full {
				sawFull = true
				break
			}
			anc = anc.Parent
		}
		if sawFull || anc == nil {
			img.Full = true
			img.Parent = nil
		} else {
			img.Parent = anc
		}
		img.MemBytes = int64(len(img.pages))*PageSize + savedFileBytes(img)
	}

	dropped := 0
	order := ck.order[:0]
	for _, c := range ck.order {
		if kept[c] {
			order = append(order, c)
			continue
		}
		delete(ck.images, c)
		dropped++
	}
	ck.order = order
	ck.last = ck.images[order[len(order)-1]]
	return dropped
}

type pageKey struct {
	pid  PID
	addr uint64
}

func nearestKept(img *Image, kept map[uint64]bool) *Image {
	for img != nil && !kept[img.Counter] {
		img = img.Parent
	}
	return img
}

func savedFileBytes(img *Image) int64 {
	var n int64
	for i := range img.Procs {
		for _, fi := range img.Procs[i].Files {
			n += int64(len(fi.SavedData))
		}
	}
	return n
}
