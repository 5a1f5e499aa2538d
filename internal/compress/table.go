package compress

// FrameFile is the one v2 reader. Its block index comes from the block
// table that writers with Options.BlockTable append AFTER the frame
// terminator, a table of per-block file offsets plus a fixed-size
// footer at the very end of the stream:
//
//	entry[i] (16 bytes):  blockOff u64 | compLen u32 | rawLen u32
//	footer  (20 bytes):   tableOff u64 | count u32 | crc32(table) u32 | "DVBT"
//
// blockOff is the file offset of block i's header; compLen is the raw
// header field, flag bits included. A frame without a table (every save
// before block tables, and anything TrimTable produces) is indexed by
// walking its block headers instead, which carry the same two lengths,
// so the walk decodes nothing. Either index is validated (strict offset
// chaining, bounded lengths) before any payload allocation.
//
// One block decoder (decodeBlock) serves two read shapes: ReadAt
// demand-decodes the blocks covering a request through a decoded-block
// cache, while ReadRange/ReadAll decode a whole span in parallel
// straight into the caller's buffer and leave the cache alone.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"sort"
	"sync"
	"sync/atomic"

	"dejaview/internal/failpoint"
	"dejaview/internal/obs"
)

const (
	tableEntrySize  = 16
	tableFooterSize = 20

	// frameFileCacheBlocks sizes the private decoded-block cache a
	// FrameFile falls back to when no shared BlockCache is installed:
	// enough that a sequential scan through a block re-reads nothing,
	// small enough that a lazy archive stays lazy. The byte budget is
	// this many default-sized blocks.
	frameFileCacheBlocks = 8
)

var tableMagic = [4]byte{'D', 'V', 'B', 'T'}

// tableEntry is one block's table record on the write side.
type tableEntry struct {
	off     int64  // file offset of the block header
	compLen uint32 // raw header field, flag bits included
	rawLen  uint32
}

// appendBlockTable appends the serialized table and footer to dst;
// tableOff is the file offset at which the table begins (one past the
// terminator).
func appendBlockTable(dst []byte, entries []tableEntry, tableOff int64) []byte {
	tbl := make([]byte, 0, len(entries)*tableEntrySize)
	var b [tableEntrySize]byte
	for _, e := range entries {
		binary.LittleEndian.PutUint64(b[0:], uint64(e.off))
		binary.LittleEndian.PutUint32(b[8:], e.compLen)
		binary.LittleEndian.PutUint32(b[12:], e.rawLen)
		tbl = append(tbl, b[:]...)
	}
	dst = append(dst, tbl...)
	var f [tableFooterSize]byte
	binary.LittleEndian.PutUint64(f[0:], uint64(tableOff))
	binary.LittleEndian.PutUint32(f[8:], uint32(len(entries)))
	binary.LittleEndian.PutUint32(f[12:], crc32.ChecksumIEEE(tbl))
	copy(f[16:], tableMagic[:])
	return append(dst, f[:]...)
}

// HasBlockTable sniffs a frame's tail for the block-table footer.
func HasBlockTable(frame []byte) bool {
	return len(frame) >= tableFooterSize &&
		bytes.Equal(frame[len(frame)-4:], tableMagic[:])
}

// TrimTable returns the sequential portion of frame — header, blocks,
// terminator — without any trailing block table. Frames it cannot open
// are returned unchanged. Golden-format tests use it to compare a
// table-bearing save against table-less fixture bytes.
func TrimTable(frame []byte) []byte {
	f, err := OpenFrameBytes(frame)
	if err != nil {
		return frame
	}
	return frame[:f.blocksEnd()+blockHeaderSize]
}

// fentry is one validated block on the read side.
type fentry struct {
	off     int64
	compLen uint32 // raw header field, flag bits included
	n       uint32 // coded payload length (flag bits stripped)
	rawLen  uint32
	dec     Codec // nil for stored blocks
}

// FrameFile reads one archived stream with random access. It is safe
// for concurrent use.
type FrameFile struct {
	r       io.ReaderAt
	size    int64
	framed  bool // false for a v1 raw stream, read back verbatim
	codecID uint8
	entries []fentry
	rawOffs []int64 // cumulative raw offsets, len(entries)+1

	// loadHook, when set (before concurrent use), observes every block
	// this frame decodes — core counts lazy block loads through it.
	loadHook func(blocks int)

	// id namespaces this frame's blocks inside bcache, which is either
	// the private per-file cache installed at open or a shared archive
	// cache swapped in with SetBlockCache.
	id     uint64
	bcache *BlockCache

	// mu serializes demand decoding, so concurrent readers of one frame
	// never decode the same block twice.
	mu sync.Mutex
}

// OpenStream opens an archived stream of the given size over r. A
// stream that starts with the frame magic opens as OpenFrameAt does;
// anything else is a v1 raw stream from a save that predates
// compression and reads back verbatim (Framed reports which).
func OpenStream(r io.ReaderAt, size int64) (*FrameFile, error) {
	var magic [len(frameMagic)]byte
	if size >= int64(len(magic)) {
		if err := readFullAt(r, magic[:], 0); err != nil {
			return nil, err
		}
	}
	if !hasMagic(magic[:]) {
		return &FrameFile{r: io.NewSectionReader(r, 0, size), size: size}, nil
	}
	return OpenFrameAt(r, size)
}

// OpenFrameAt opens a frame of the given size over r, indexing its
// blocks from the trailing block table when there is one and from the
// block headers otherwise. Structurally invalid frames fail with
// ErrCorrupt.
func OpenFrameAt(r io.ReaderAt, size int64) (*FrameFile, error) {
	var hdr [headerSize]byte
	if size < headerSize {
		return nil, fmt.Errorf("%w: %d-byte frame is shorter than the header", ErrCorrupt, size)
	}
	if err := readFullAt(r, hdr[:], 0); err != nil {
		return nil, fmt.Errorf("%w: frame header: %v", ErrCorrupt, err)
	}
	codecID, _, err := parseHeader(hdr[:])
	if err != nil {
		return nil, err
	}
	frameC, err := frameDecoder(codecID)
	if err != nil {
		return nil, err
	}
	f := &FrameFile{
		r:       r,
		size:    size,
		framed:  true,
		codecID: codecID,
		rawOffs: []int64{0},
		id:      frameFileIDs.Add(1),
		bcache:  NewBlockCache(frameFileCacheBlocks * DefaultBlockSize),
	}
	tbl, tableOff, err := readBlockTable(r, size)
	switch {
	case err != nil:
		return nil, err
	case tbl == nil:
		err = f.scanBlocks(frameC)
	default:
		err = f.indexTable(frameC, tbl, tableOff)
	}
	if err != nil {
		return nil, err
	}
	return f, nil
}

// OpenFrameBytes is OpenFrameAt over an in-memory frame.
func OpenFrameBytes(frame []byte) (*FrameFile, error) {
	return OpenFrameAt(bytes.NewReader(frame), int64(len(frame)))
}

// readBlockTable returns the CRC-checked table bytes and their offset,
// or a nil table when the frame carries no footer.
func readBlockTable(r io.ReaderAt, size int64) ([]byte, int64, error) {
	// Minimal table-bearing frame: header + terminator + footer.
	if size < headerSize+blockHeaderSize+tableFooterSize {
		return nil, 0, nil
	}
	var foot [tableFooterSize]byte
	if err := readFullAt(r, foot[:], size-tableFooterSize); err != nil {
		return nil, 0, fmt.Errorf("%w: table footer: %v", ErrCorrupt, err)
	}
	if !bytes.Equal(foot[16:20], tableMagic[:]) {
		return nil, 0, nil
	}
	tableOff := int64(binary.LittleEndian.Uint64(foot[0:]))
	count := binary.LittleEndian.Uint32(foot[8:])
	wantCRC := binary.LittleEndian.Uint32(foot[12:])
	// Geometry first: the table must exactly fill [tableOff, footer), and
	// count is bounded by that span before the table bytes are allocated.
	if tableOff < headerSize+blockHeaderSize ||
		int64(count) > (size-tableFooterSize-tableOff)/tableEntrySize ||
		tableOff+int64(count)*tableEntrySize+tableFooterSize != size {
		return nil, 0, fmt.Errorf("%w: bad block-table geometry (off %d count %d size %d)",
			ErrCorrupt, tableOff, count, size)
	}
	tbl := make([]byte, int64(count)*tableEntrySize)
	if err := readFullAt(r, tbl, tableOff); err != nil {
		return nil, 0, fmt.Errorf("%w: block table: %v", ErrCorrupt, err)
	}
	if got := crc32.ChecksumIEEE(tbl); got != wantCRC {
		return nil, 0, fmt.Errorf("%w: block table CRC mismatch: %#08x != %#08x", ErrCorrupt, got, wantCRC)
	}
	return tbl, tableOff, nil
}

// indexTable builds the block index from a block table. Entries must
// chain exactly: block i+1's header starts where block i's payload
// ends, and the terminator sits between the last block and the table.
// Anything else is a forged or stale table.
func (f *FrameFile) indexTable(frameC Codec, tbl []byte, tableOff int64) error {
	count := len(tbl) / tableEntrySize
	f.entries = make([]fentry, 0, count)
	f.rawOffs = make([]int64, 1, count+1)
	for i := 0; i < count; i++ {
		e := tbl[i*tableEntrySize:]
		off := int64(binary.LittleEndian.Uint64(e[0:]))
		if off != f.blocksEnd() {
			return fmt.Errorf("%w: table entry %d at offset %d, want %d", ErrCorrupt, i, off, f.blocksEnd())
		}
		if err := f.addBlock(frameC, binary.LittleEndian.Uint32(e[8:]), binary.LittleEndian.Uint32(e[12:])); err != nil {
			return err
		}
	}
	if end := f.blocksEnd(); end+blockHeaderSize != tableOff {
		return fmt.Errorf("%w: table ends at %d, terminator expected at %d", ErrCorrupt, tableOff, end)
	}
	return nil
}

// scanBlocks builds the block index of a table-less frame from its block
// headers alone. The walk must reach the terminator; bytes past it are
// ignored, as they always were.
func (f *FrameFile) scanBlocks(frameC Codec) error {
	var h [blockHeaderSize]byte
	for {
		off := f.blocksEnd()
		if off+blockHeaderSize > f.size {
			return fmt.Errorf("%w: truncated frame: no block header at %d", ErrCorrupt, off)
		}
		if err := readFullAt(f.r, h[:], off); err != nil {
			return fmt.Errorf("%w: block header at %d: %v", ErrCorrupt, off, err)
		}
		compLen, rawLen, crc := parseBlockHeader(h[:])
		if rawLen == 0 {
			if compLen != 0 || crc != 0 {
				return fmt.Errorf("%w: malformed terminator", ErrCorrupt)
			}
			return nil
		}
		if err := f.addBlock(frameC, compLen, rawLen); err != nil {
			return err
		}
		if end := f.blocksEnd(); end > f.size {
			return fmt.Errorf("%w: truncated block: ends at %d of %d bytes", ErrCorrupt, end, f.size)
		}
	}
}

// addBlock validates one block's header fields and appends it to the
// index at the current end of the blocks.
func (f *FrameFile) addBlock(frameC Codec, compLen, rawLen uint32) error {
	if rawLen == 0 {
		return fmt.Errorf("%w: block index lists a terminator", ErrCorrupt)
	}
	n, dec, err := resolveBlock(f.codecID, frameC, compLen, rawLen)
	if err != nil {
		return err
	}
	f.entries = append(f.entries, fentry{off: f.blocksEnd(), compLen: compLen, n: n, rawLen: rawLen, dec: dec})
	f.rawOffs = append(f.rawOffs, f.RawSize()+int64(rawLen))
	return nil
}

// blocksEnd is the file offset one past the last indexed block: where
// the next block header, or the terminator, starts.
func (f *FrameFile) blocksEnd() int64 {
	if k := len(f.entries); k > 0 {
		e := f.entries[k-1]
		return e.off + blockHeaderSize + int64(e.n)
	}
	return headerSize
}

// readFullAt fills p from r at off; a full read that also reports
// io.EOF (allowed at the end of an io.ReaderAt) is a success.
func readFullAt(r io.ReaderAt, p []byte, off int64) error {
	n, err := r.ReadAt(p, off)
	if n == len(p) {
		return nil
	}
	if err == nil || err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return err
}

// Framed reports whether the stream is a v2 frame (false for a v1 raw
// stream opened by OpenStream).
func (f *FrameFile) Framed() bool { return f.framed }

// SetLoadHook installs a callback observing every block this frame
// decodes. Call before the FrameFile is used concurrently.
func (f *FrameFile) SetLoadHook(hook func(blocks int)) { f.loadHook = hook }

// SetBlockCache swaps the private per-file cache for a shared one, so
// every stream of an archive draws on a single byte budget. Call before
// the FrameFile is used concurrently; a nil cache restores a fresh
// private cache.
func (f *FrameFile) SetBlockCache(bc *BlockCache) {
	if bc == nil {
		bc = NewBlockCache(frameFileCacheBlocks * DefaultBlockSize)
	}
	f.bcache = bc
}

// NumBlocks reports the block count (zero for a raw stream).
func (f *FrameFile) NumBlocks() int { return len(f.entries) }

// RawSize reports the stream's total uncompressed length.
func (f *FrameFile) RawSize() int64 {
	if !f.framed {
		return f.size
	}
	return f.rawOffs[len(f.rawOffs)-1]
}

// Stats reports the frame's per-codec block distribution from its
// block index alone; nothing is decoded.
func (f *FrameFile) Stats() *FrameStats {
	st := &FrameStats{Codec: f.codecID, Blocks: len(f.entries), PerCodec: map[string]int{}}
	for _, e := range f.entries {
		name := "raw"
		if e.dec != nil {
			name = e.dec.Name()
		}
		st.PerCodec[name]++
	}
	return st
}

// blockFor locates the block containing raw offset off.
func (f *FrameFile) blockFor(off int64) int {
	return sort.Search(len(f.entries), func(i int) bool { return f.rawOffs[i+1] > off })
}

// decodeBlock reads block i, decompresses it into dst (sized to the
// block's raw length), and checks it against its header: the header
// must repeat the lengths the index holds, and the decoded bytes must
// match its CRC. It is the only place a v2 block is decoded.
func (f *FrameFile) decodeBlock(i int, dst []byte) error {
	e := f.entries[i]
	r := failpoint.Reader("compress/readat", io.NewSectionReader(f.r, e.off, blockHeaderSize+int64(e.n)))
	var hdr [blockHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return fmt.Errorf("%w: block %d header read: %w", ErrCorrupt, i, err)
	}
	compLen, rawLen, crc := parseBlockHeader(hdr[:])
	if compLen != e.compLen || rawLen != e.rawLen {
		return fmt.Errorf("%w: block %d header (%#x, %d) disagrees with the block index (%#x, %d)",
			ErrCorrupt, i, compLen, rawLen, e.compLen, e.rawLen)
	}
	// A stored block's payload is its raw bytes: read it straight into dst.
	comp := dst
	if e.dec != nil {
		comp = make([]byte, e.n) // bounded: resolveBlock validated e.n at open
	}
	if _, err := io.ReadFull(r, comp); err != nil {
		return fmt.Errorf("%w: block %d read: %w", ErrCorrupt, i, err)
	}
	if e.dec != nil {
		if err := e.dec.Decompress(dst, comp); err != nil {
			return fmt.Errorf("block %d: %w", i, err)
		}
	}
	if got := crc32.ChecksumIEEE(dst); got != crc {
		return fmt.Errorf("%w: block %d CRC mismatch: %#08x != %#08x", ErrCorrupt, i, got, crc)
	}
	obsBlocksUnpacked.Inc()
	return nil
}

// block returns block i's decoded bytes for a demand read, decoding it
// into the cache on first touch. The returned slice is shared with the
// cache: it must not escape this package unmodified and uncopied —
// ReadAt copies out of it and Block returns a defensive copy, so
// external callers can never corrupt a resident block (the ownership
// contract is pinned by TestBlockOwnership).
func (f *FrameFile) block(i int) ([]byte, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if blk, ok := f.bcache.get(f.id, i); ok {
		return blk, nil
	}
	raw := make([]byte, f.entries[i].rawLen)
	if err := f.decodeBlock(i, raw); err != nil {
		return nil, err
	}
	if f.loadHook != nil {
		f.loadHook(1)
	}
	f.bcache.put(f.id, i, raw)
	return raw, nil
}

// Block returns a copy of block i's decoded bytes. The copy is the
// caller's to keep and mutate; the cache-resident block is never handed
// out directly.
func (f *FrameFile) Block(i int) ([]byte, error) {
	if i < 0 || i >= len(f.entries) {
		return nil, fmt.Errorf("%w: block %d of %d", ErrCorrupt, i, len(f.entries))
	}
	blk, err := f.block(i)
	if err != nil {
		return nil, err
	}
	return append([]byte(nil), blk...), nil
}

// ReadAt implements io.ReaderAt over the stream's uncompressed bytes,
// demand-decoding only the covering blocks through the block cache.
func (f *FrameFile) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("%w: negative offset %d", ErrCorrupt, off)
	}
	if !f.framed {
		return f.r.ReadAt(p, off)
	}
	total := f.RawSize()
	n := 0
	for n < len(p) && off < total {
		bi := f.blockFor(off)
		blk, err := f.block(bi)
		if err != nil {
			return n, err
		}
		c := copy(p[n:], blk[off-f.rawOffs[bi]:])
		n += c
		off += int64(c)
	}
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// ReadRange fills p with the stream's bytes at off; the whole span must
// exist. It is the whole-stream read: blocks already resident in the
// cache are copied out, every other covering block decodes in parallel
// straight into p (a partly covered edge block through scratch), and
// nothing is added to the cache.
func (f *FrameFile) ReadRange(p []byte, off int64) error {
	end := off + int64(len(p))
	if off < 0 || end > f.RawSize() {
		return fmt.Errorf("%w: range [%d, %d) outside the %d-byte stream", ErrCorrupt, off, end, f.RawSize())
	}
	if !f.framed {
		return readFullAt(f.r, p, off)
	}
	if len(p) == 0 {
		return nil
	}
	t0 := obs.StartTimer()
	defer t0.Done(obsUnpackMS)
	first := f.blockFor(off)
	var decoded atomic.Int64
	err := runBlocks(f.blockFor(end-1)-first+1, Options{}.withDefaults().Workers, func(j int) error {
		i := first + j
		lo, hi := f.rawOffs[i], f.rawOffs[i+1]
		from, to := max(lo, off), min(hi, end)
		dst := p[from-off : to-off]
		if blk, ok := f.bcache.peek(f.id, i); ok {
			copy(dst, blk[from-lo:to-lo])
			return nil
		}
		decoded.Add(1)
		if from == lo && to == hi {
			return f.decodeBlock(i, dst)
		}
		blk := make([]byte, hi-lo)
		if err := f.decodeBlock(i, blk); err != nil {
			return err
		}
		copy(dst, blk[from-lo:to-lo])
		return nil
	})
	if err != nil {
		return err
	}
	if n := decoded.Load(); n > 0 && f.loadHook != nil {
		f.loadHook(int(n))
	}
	return nil
}

// ReadAll decodes the whole stream (see ReadRange).
func (f *FrameFile) ReadAll() ([]byte, error) {
	p := make([]byte, f.RawSize())
	if err := f.ReadRange(p, 0); err != nil {
		return nil, err
	}
	return p, nil
}

// SequentialReader returns an io.Reader over the uncompressed bytes,
// demand-decoding blocks as the cursor reaches them.
func (f *FrameFile) SequentialReader() io.Reader { return io.NewSectionReader(f, 0, f.RawSize()) }
