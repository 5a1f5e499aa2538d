package vexec

import (
	"errors"
	"fmt"
	"io"
	"sort"

	"dejaview/internal/binio"
	"dejaview/internal/compress"
	"dejaview/internal/failpoint"
	"dejaview/internal/lfs"
	"dejaview/internal/simclock"
)

// Checkpoint-image serialization: the paper's revive reads "checkpoint
// image files" from disk; archiving a session therefore persists the
// whole image chain — process metadata plus captured pages, with pages
// deduplicated across incremental images (a page unchanged over many
// checkpoints is stored once, exactly as the COW chain holds it in
// memory).
//
// Since storage format v2 the stream is wrapped in a parallel block
// compressor (internal/compress): memory pages dominate the image chain
// and compress extremely well, mirroring the paper's gzip'd checkpoint
// files. LoadImages reads the decoded stream, so callers open the file
// through compress.OpenStream, which still reads v1 uncompressed
// chains.
//
// The DEJVIMG2 layout splits metadata from payload: counters, page
// generations, and every image's process metadata and page references
// come first, and the raw page bytes sit in one contiguous section at
// the tail (page i at rawSize - (nPages-i)*PageSize). LoadImages reads
// only the metadata prefix and demand-loads pages from the stream as
// restores touch them; the legacy DEJVIMG1 layout keeps pages inline
// and loads whole.

const (
	imgMagic  = 0x31474D49564A4544 // "DEJVIMG1" (legacy: pages inline)
	imgMagic2 = 0x32474D49564A4544 // "DEJVIMG2" (metadata first, page payload at the tail)
)

// ErrCorruptImages reports a structurally invalid image stream.
var ErrCorruptImages = errors.New("vexec: corrupt checkpoint images")

// SaveImages serializes every checkpoint image (and the checkpointer's
// counters) to w with the default compression options.
func (ck *Checkpointer) SaveImages(w io.Writer) error {
	return ck.SaveImagesOptions(w, compress.Options{})
}

// SaveImagesOptions is SaveImages with explicit compression options —
// the tier compactor forces the strongest codec when rewriting cold
// archives. The block table is always appended so the saved stream
// supports lazy opens.
func (ck *Checkpointer) SaveImagesOptions(w io.Writer, o compress.Options) error {
	if err := failpoint.Inject("vexec/images.save"); err != nil {
		return fmt.Errorf("vexec: save images: %w", err)
	}
	w = failpoint.Writer("vexec/images.write", w)
	ck.mu.Lock()
	defer ck.mu.Unlock()
	ck.joinEstimatesLocked()
	o.BlockTable = true
	zw, err := compress.NewWriter(w, o)
	if err != nil {
		return err
	}
	bw := binio.NewWriter(zw)
	bw.U64(imgMagic2)
	bw.U64(ck.counter)
	bw.U64(ck.lastGen)

	// Page pool, deduplicated by identity. Only generations live here;
	// the page bytes form the payload section at the stream's tail.
	pageID := make(map[*page]uint32)
	var pages []*page
	for _, c := range ck.order {
		for _, ip := range ck.images[c].pages {
			if _, ok := pageID[ip.pg]; !ok {
				pageID[ip.pg] = uint32(len(pages))
				pages = append(pages, ip.pg)
			}
		}
	}
	if err := ck.materializeLocked(pages); err != nil {
		//lint:ignore dropped-error error path: the materialize error is the root cause; the success path returns zw.Close()
		zw.Close()
		return fmt.Errorf("vexec: save images: %w", err)
	}
	bw.U32(uint32(len(pages)))
	for _, p := range pages {
		bw.U64(p.gen)
	}

	bw.U32(uint32(len(ck.order)))
	for _, c := range ck.order {
		img := ck.images[c]
		bw.U64(img.Counter)
		bw.U64(uint64(img.Time))
		bw.Bool(img.Full)
		if img.Parent != nil {
			bw.U64(img.Parent.Counter)
		} else {
			bw.U64(0)
		}
		bw.U64(uint64(img.FSEpoch))
		bw.U64(uint64(img.MemBytes))
		bw.U64(uint64(img.MetaBytes))
		bw.U64(uint64(img.compressed))
		bw.Bool(img.cached)

		bw.U32(uint32(len(img.Procs)))
		for i := range img.Procs {
			writeProcImage(bw, &img.Procs[i])
		}
		bw.U32(uint32(len(img.pages)))
		for _, ip := range img.pages {
			bw.U64(uint64(ip.pid))
			bw.U64(ip.addr)
			bw.U32(pageID[ip.pg])
		}
	}
	// Payload section: raw page bytes in pool order.
	for _, p := range pages {
		bw.Bytes(p.data)
	}
	if err := bw.Flush(); err != nil {
		//lint:ignore dropped-error error path: the flush error is the root cause; the success path returns zw.Close()
		zw.Close()
		return err
	}
	return zw.Close()
}

func writeProcImage(bw *binio.Writer, pi *ProcImage) {
	bw.U64(uint64(pi.PID))
	bw.U64(uint64(pi.PPID))
	bw.String(pi.Name)
	bw.U8(uint8(pi.State))
	bw.U32(uint32(pi.Threads))
	bw.U64(uint64(pi.Tracer))
	bw.U64(pi.Regs.PC)
	bw.U64(pi.Regs.SP)
	for _, g := range pi.Regs.GPR {
		bw.U64(g)
	}
	bw.U32(pi.Regs.FPCR)
	bw.U32(uint32(pi.Creds.UID))
	bw.U32(uint32(pi.Creds.GID))
	bw.U32(uint32(int32(pi.Priority)))
	bw.U64(uint64(pi.Pending))
	bw.U64(uint64(pi.Blocked))
	bw.U32(uint32(len(pi.Files)))
	for _, f := range pi.Files {
		bw.U32(uint32(f.FD))
		bw.String(f.Path)
		bw.U64(uint64(f.Offset))
		bw.Bool(f.Unlinked)
		bw.String(f.RelinkPath)
		bw.Blob(f.SavedData)
	}
	bw.U32(uint32(len(pi.Sockets)))
	for _, s := range pi.Sockets {
		bw.U32(uint32(s.FD))
		bw.U8(uint8(s.Proto))
		bw.String(s.LocalAddr)
		bw.String(s.RemoteAddr)
		bw.U8(uint8(s.State))
	}
	bw.U32(uint32(len(pi.Regions)))
	for _, r := range pi.Regions {
		bw.U64(r.Start)
		bw.U64(r.Length)
		bw.U8(uint8(r.Perms))
	}
}

// imageMeta is the decoded metadata section of an image stream.
type imageMeta struct {
	counter uint64
	lastGen uint64
	pages   []*page // data read inline (DEJVIMG1) or demand-loaded (DEJVIMG2)
	images  map[uint64]*Image
	order   []uint64
}

// readImageMeta decodes counters, the page pool, and image entries
// (with page references resolved against the pool), re-links parents,
// and validates every image. Page data is read only when inline (the
// legacy DEJVIMG1 layout stores each page's bytes after its
// generation).
func readImageMeta(br *binio.Reader, inline bool) (*imageMeta, error) {
	m := &imageMeta{}
	m.counter = br.U64()
	m.lastGen = br.U64()

	nPages := br.U32()
	if br.Err() == nil && nPages > 1<<26 {
		return nil, fmt.Errorf("%w: %d pages", ErrCorruptImages, nPages)
	}
	if err := br.Err(); err != nil {
		return nil, err
	}
	m.pages = make([]*page, nPages)
	for i := range m.pages {
		m.pages[i] = &page{gen: br.U64()}
		if inline {
			m.pages[i].data = br.Bytes(PageSize)
		}
	}

	nImages := br.U32()
	if br.Err() == nil && nImages > 1<<24 {
		return nil, fmt.Errorf("%w: %d images", ErrCorruptImages, nImages)
	}
	m.images = make(map[uint64]*Image, nImages)
	parents := make(map[uint64]uint64)
	for i := uint32(0); i < nImages && br.Err() == nil; i++ {
		img := &Image{}
		img.Counter = br.U64()
		img.Time = simclock.Time(br.U64())
		img.Full = br.Bool()
		parent := br.U64()
		img.FSEpoch = lfs.Epoch(br.U64())
		img.MemBytes = int64(br.U64())
		img.MetaBytes = int64(br.U64())
		img.compressed = int64(br.U64())
		img.cached = br.Bool()

		nProcs := br.U32()
		for p := uint32(0); p < nProcs && br.Err() == nil; p++ {
			img.Procs = append(img.Procs, readProcImage(br))
		}
		nImgPages := br.U32()
		for p := uint32(0); p < nImgPages && br.Err() == nil; p++ {
			pid := PID(br.U64())
			addr := br.U64()
			ref := br.U32()
			if int(ref) >= len(m.pages) {
				return nil, fmt.Errorf("%w: page ref %d of %d", ErrCorruptImages, ref, len(m.pages))
			}
			img.pages = append(img.pages, imagePage{pid: pid, addr: addr, pg: m.pages[ref]})
		}
		m.images[img.Counter] = img
		m.order = append(m.order, img.Counter)
		if parent != 0 {
			parents[img.Counter] = parent
		}
	}
	if err := br.Err(); err != nil {
		return nil, fmt.Errorf("vexec: load images: %w", err)
	}
	// Re-link parent pointers and validate.
	for c, pc := range parents {
		p, ok := m.images[pc]
		if !ok {
			return nil, fmt.Errorf("%w: image %d references missing parent %d", ErrCorruptImages, c, pc)
		}
		m.images[c].Parent = p
	}
	sort.Slice(m.order, func(i, j int) bool { return m.order[i] < m.order[j] })
	for _, c := range m.order {
		if err := m.images[c].Validate(); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorruptImages, err)
		}
	}
	return m, nil
}

// install replaces the checkpointer's chain with the loaded one.
func (ck *Checkpointer) installLocked(m *imageMeta) {
	ck.counter = m.counter
	ck.lastGen = m.lastGen
	ck.images = m.images
	ck.order = m.order
	ck.last = nil
	if len(m.order) > 0 {
		ck.last = m.images[m.order[len(m.order)-1]]
	}
}

// LoadImages restores a checkpoint image chain saved with SaveImages
// into this checkpointer (which must be freshly created: existing images
// are replaced). r holds the decoded stream — size bytes, such as a
// compress.FrameFile over images.dv. A DEJVIMG2 stream loads only its
// metadata section and leaves r as the demand-load source for page
// bytes: page i lives at raw offset size - (nPages-i)*PageSize, and the
// metadata must end exactly there. Pages are materialized on first use
// (restore consults only the target's incremental chain; a full re-save
// touches everything). A legacy DEJVIMG1 chain, pages inline, loads
// whole through the same sequential cursor over r.
func (ck *Checkpointer) LoadImages(r io.ReaderAt, size int64) error {
	if err := failpoint.Inject("vexec/images.load"); err != nil {
		return fmt.Errorf("vexec: load images: %w", err)
	}
	ck.mu.Lock()
	defer ck.mu.Unlock()
	br := binio.NewReader(failpoint.Reader("vexec/images.read", io.NewSectionReader(r, 0, size)))
	magic := br.U64()
	if err := br.Err(); err != nil {
		return err
	}
	if magic != imgMagic && magic != imgMagic2 {
		return fmt.Errorf("%w: bad magic", ErrCorruptImages)
	}
	m, err := readImageMeta(br, magic == imgMagic)
	if err != nil {
		return err
	}
	if magic == imgMagic {
		if err := probeEOF(br); err != nil {
			return err
		}
		ck.installLocked(m)
		return nil
	}
	payloadBase := size - int64(len(m.pages))*PageSize
	if br.Offset() != payloadBase {
		return fmt.Errorf("%w: metadata ends at %d, but %d pages leave %d bytes for it",
			ErrCorruptImages, br.Offset(), len(m.pages), payloadBase)
	}
	ck.installLocked(m)
	ck.lazyIdx = make(map[*page]int, len(m.pages))
	for i, p := range m.pages {
		ck.lazyIdx[p] = i
	}
	ck.pageSrc = r
	ck.payloadBase = payloadBase
	return nil
}

// Materialize loads every page still waiting on its demand-load source,
// in payload order, so each compressed block is read once.
func (ck *Checkpointer) Materialize() error {
	ck.mu.Lock()
	defer ck.mu.Unlock()
	lazy := make([]*page, len(ck.lazyIdx))
	for p, i := range ck.lazyIdx {
		lazy[i] = p
	}
	return ck.materializeLocked(lazy)
}

// materializeLocked fetches the data of any still-lazy page in pgs from
// the checkpointer's page source. Pages already holding data (read
// inline, fetched before, or created live) pass through untouched.
func (ck *Checkpointer) materializeLocked(pgs []*page) error {
	for _, p := range pgs {
		if p.data != nil {
			continue
		}
		idx, ok := ck.lazyIdx[p]
		if !ok {
			return fmt.Errorf("%w: page has neither data nor a lazy source", ErrCorruptImages)
		}
		buf := make([]byte, PageSize)
		if _, err := ck.pageSrc.ReadAt(buf, ck.payloadBase+int64(idx)*PageSize); err != nil {
			return fmt.Errorf("vexec: lazy page %d: %w", idx, err)
		}
		p.data = buf
		delete(ck.lazyIdx, p)
	}
	return nil
}

// probeEOF requires the stream to end exactly here. With the compressed
// container a truncated file can still decode a complete logical prefix
// (the frame terminator is what vouches for completeness), so probe one
// byte past the end and require a clean EOF.
func probeEOF(br *binio.Reader) error {
	if b := br.Bytes(1); b != nil {
		return fmt.Errorf("%w: trailing data after image stream", ErrCorruptImages)
	}
	if err := br.Err(); !errors.Is(err, io.EOF) {
		return fmt.Errorf("%w: unterminated stream: %v", ErrCorruptImages, err)
	}
	return nil
}

func readProcImage(br *binio.Reader) ProcImage {
	pi := ProcImage{}
	pi.PID = PID(br.U64())
	pi.PPID = PID(br.U64())
	pi.Name = br.String()
	pi.State = ProcState(br.U8())
	pi.Threads = int(br.U32())
	pi.Tracer = PID(br.U64())
	pi.Regs.PC = br.U64()
	pi.Regs.SP = br.U64()
	for i := range pi.Regs.GPR {
		pi.Regs.GPR[i] = br.U64()
	}
	pi.Regs.FPCR = br.U32()
	pi.Creds.UID = int(br.U32())
	pi.Creds.GID = int(br.U32())
	pi.Priority = int(int32(br.U32()))
	pi.Pending = SignalSet(br.U64())
	pi.Blocked = SignalSet(br.U64())
	nFiles := br.U32()
	for i := uint32(0); i < nFiles && br.Err() == nil; i++ {
		f := FileImage{}
		f.FD = int(br.U32())
		f.Path = br.String()
		f.Offset = int64(br.U64())
		f.Unlinked = br.Bool()
		f.RelinkPath = br.String()
		f.SavedData = br.Blob()
		pi.Files = append(pi.Files, f)
	}
	nSockets := br.U32()
	for i := uint32(0); i < nSockets && br.Err() == nil; i++ {
		s := SocketImage{}
		s.FD = int(br.U32())
		s.Proto = SockProto(br.U8())
		s.LocalAddr = br.String()
		s.RemoteAddr = br.String()
		s.State = SockState(br.U8())
		pi.Sockets = append(pi.Sockets, s)
	}
	nRegions := br.U32()
	for i := uint32(0); i < nRegions && br.Err() == nil; i++ {
		r := RegionImage{}
		r.Start = br.U64()
		r.Length = br.U64()
		r.Perms = Perm(br.U8())
		pi.Regions = append(pi.Regions, r)
	}
	return pi
}
