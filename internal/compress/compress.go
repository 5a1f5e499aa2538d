// Package compress implements DejaView's block-based storage compression
// (§4.1): the paper keeps a full day of display, checkpoint, and file
// system history in a few GB by compressing everything it logs. Streams
// are split into independent fixed-size blocks wrapped in a
// self-describing frame — magic, codec id, per-block uncompressed length
// and CRC32 — and a worker pool compresses or decompresses blocks in
// parallel (pigz-style), so Save/Open throughput scales with GOMAXPROCS
// while any single corrupt block is detected rather than silently
// decoded.
//
// Pack (in memory) and Writer (io-streamed) write frames; FrameFile
// (table.go) is the one reader, for whole-stream loads and demand reads
// alike. OpenStream tells a frame from a raw v1 stream.
package compress

import (
	"compress/flate"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
)

// Codec ids recorded in the frame header. Ids are part of the on-disk
// format; never renumber them.
const (
	// CodecRaw stores blocks verbatim (still framed and checksummed).
	CodecRaw uint8 = 0
	// CodecFlate entropy-codes blocks with stdlib DEFLATE.
	CodecFlate uint8 = 1
	// CodecLZS codes blocks with the project-native byte-aligned LZSS
	// sliding-window codec (see lzs.go): much faster than DEFLATE on the
	// repetition-heavy display streams at comparable ratio.
	CodecLZS uint8 = 2
	// CodecAuto is a frame-level strategy, not a block codec: the packer
	// samples each block's byte entropy and 4-gram repeat density and
	// codes it raw, lzs, or flate independently; the choice is recorded
	// per block in the block header's codec bits. This is the default.
	CodecAuto uint8 = 3
)

// CodecIDByName resolves a CLI-facing codec name ("raw", "flate",
// "lzs", "auto") to its frame id.
func CodecIDByName(name string) (uint8, bool) {
	switch name {
	case "raw":
		return CodecRaw, true
	case "flate":
		return CodecFlate, true
	case "lzs":
		return CodecLZS, true
	case "auto":
		return CodecAuto, true
	}
	return 0, false
}

// ErrCorrupt reports a structurally invalid or checksum-failing frame.
var ErrCorrupt = errors.New("compress: corrupt frame")

// ErrUnknownCodec reports a frame whose codec id is not registered.
var ErrUnknownCodec = errors.New("compress: unknown codec")

// Frame layout constants.
const (
	frameVersion = 2 // the "v2 container" of the record store

	headerSize      = 8  // magic(4) version(1) codec(1) reserved(2)
	blockHeaderSize = 12 // compLen(4) rawLen(4) crc32(4)

	// storedRawBit in a block's compLen marks a block kept verbatim
	// because entropy coding did not shrink it (incompressible data).
	storedRawBit = 1 << 31

	// blockCodecShift/blockCodecMask carve bits 27-29 of a block's
	// compLen for the block's codec id in CodecAuto frames (compLen
	// proper is bounded by MaxBlockSize = 2^26, so the bits were always
	// zero in earlier v2 frames). In single-codec frames the bits must
	// be zero; in auto frames every coded block carries the id it was
	// coded with, and stored blocks keep using storedRawBit.
	blockCodecShift = 27
	blockCodecMask  = uint32(7) << blockCodecShift

	// MaxBlockSize bounds a single block's uncompressed length; a frame
	// claiming more is corrupt (guards allocation on hostile input).
	MaxBlockSize = 64 << 20

	// maxBlockRatio bounds how much a coded block may claim to expand.
	// DEFLATE tops out near 1032:1; anything past 2048:1 (plus a little
	// slack for tiny blocks) cannot have come from our Pack and is
	// rejected before the claimed bytes are allocated, so a few hundred
	// hostile header bytes cannot demand gigabytes of output.
	maxBlockRatio = 2048

	// DefaultBlockSize balances parallelism against per-block codec
	// state and dictionary-reset cost.
	DefaultBlockSize = 256 << 10
)

var frameMagic = [4]byte{'D', 'V', 'Z', 'B'}

// hasMagic reports whether b begins with the frame magic bytes.
func hasMagic(b []byte) bool {
	return len(b) >= len(frameMagic) &&
		b[0] == frameMagic[0] && b[1] == frameMagic[1] &&
		b[2] == frameMagic[2] && b[3] == frameMagic[3]
}

// FrameCodec reports the frame-level codec id recorded in a frame
// header (CodecAuto for adaptive frames). It reads only the header, so
// callers can cheaply decide whether a stream already uses the codec
// they would rewrite it with.
func FrameCodec(b []byte) (uint8, error) {
	if len(b) < headerSize || !hasMagic(b) {
		return 0, fmt.Errorf("%w: not a frame", ErrCorrupt)
	}
	if b[4] != frameVersion {
		return 0, fmt.Errorf("%w: frame version %d", ErrCorrupt, b[4])
	}
	return b[5], nil
}

// Options configure packing. The zero value selects CodecAuto (adaptive
// per-block raw/lzs/flate selection) with DefaultBlockSize blocks and
// GOMAXPROCS workers.
type Options struct {
	// Codec is the codec id (CodecAuto unless set).
	Codec uint8
	// Level is the flate compression level (flate.DefaultCompression
	// when zero; ignored by CodecRaw).
	Level int
	// BlockSize is the uncompressed bytes per block.
	BlockSize int
	// Workers caps the compression/decompression worker pool.
	Workers int

	// BlockTable appends a seekable block-offset table after the frame
	// terminator (see table.go), so FrameFile opens without walking the
	// block headers. All current savers enable it; older table-less
	// frames open through the header walk.
	BlockTable bool

	// codecSet distinguishes an explicit CodecRaw from the zero value.
	codecSet bool
}

// WithCodec returns o with an explicit codec id (required to select
// CodecRaw, whose id collides with the zero value).
func (o Options) WithCodec(id uint8) Options {
	o.Codec = id
	o.codecSet = true
	return o
}

func (o Options) withDefaults() Options {
	if !o.codecSet && o.Codec == 0 {
		o.Codec = CodecAuto
	}
	if o.Level == 0 {
		o.Level = flate.DefaultCompression
	}
	if o.BlockSize <= 0 {
		o.BlockSize = DefaultBlockSize
	}
	if o.BlockSize > MaxBlockSize {
		o.BlockSize = MaxBlockSize
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o
}

// A Codec turns one block of bytes into its coded form and back. Codecs
// must be safe for concurrent use: the worker pool calls them from many
// goroutines.
type Codec interface {
	// ID is the codec's frame id.
	ID() uint8
	// Name is a human-readable codec name for diagnostics.
	Name() string
	// Compress appends the coded form of src to dst.
	Compress(dst, src []byte, level int) ([]byte, error)
	// Decompress fills dst (sized to the block's uncompressed length)
	// from the coded bytes in src.
	Decompress(dst, src []byte) error
}

var (
	codecMu  sync.RWMutex
	codecsByID = map[uint8]Codec{}
)

// Register installs a codec by id; later registrations replace earlier
// ones. The stdlib codecs are pre-registered.
func Register(c Codec) {
	codecMu.Lock()
	defer codecMu.Unlock()
	codecsByID[c.ID()] = c
}

func codecByID(id uint8) (Codec, error) {
	codecMu.RLock()
	defer codecMu.RUnlock()
	c, ok := codecsByID[id]
	if !ok {
		return nil, fmt.Errorf("%w: id %d", ErrUnknownCodec, id)
	}
	return c, nil
}

func init() {
	Register(rawCodec{})
	Register(flateCodec{})
	Register(lzsCodec{})
}

// rawCodec stores blocks verbatim.
type rawCodec struct{}

func (rawCodec) ID() uint8    { return CodecRaw }
func (rawCodec) Name() string { return "raw" }

func (rawCodec) Compress(dst, src []byte, _ int) ([]byte, error) {
	return append(dst, src...), nil
}

func (rawCodec) Decompress(dst, src []byte) error {
	if len(src) != len(dst) {
		return fmt.Errorf("%w: raw block is %d bytes, want %d", ErrCorrupt, len(src), len(dst))
	}
	copy(dst, src)
	return nil
}

// flateCodec entropy-codes blocks with stdlib DEFLATE, pooling writer
// and reader state per level (flate writers are expensive to allocate).
type flateCodec struct{}

func (flateCodec) ID() uint8    { return CodecFlate }
func (flateCodec) Name() string { return "flate" }

// appendWriter lets a flate.Writer emit directly into an append-grown
// slice without an intermediate buffer copy.
type appendWriter struct{ b []byte }

func (aw *appendWriter) Write(p []byte) (int, error) {
	aw.b = append(aw.b, p...)
	return len(p), nil
}

var flateWriterPools sync.Map // level -> *sync.Pool of *flate.Writer

func getFlateWriter(w io.Writer, level int) (*flate.Writer, *sync.Pool, error) {
	pi, ok := flateWriterPools.Load(level)
	if !ok {
		pi, _ = flateWriterPools.LoadOrStore(level, &sync.Pool{})
	}
	pool := pi.(*sync.Pool)
	if zw, ok := pool.Get().(*flate.Writer); ok {
		zw.Reset(w)
		return zw, pool, nil
	}
	zw, err := flate.NewWriter(w, level)
	if err != nil {
		return nil, nil, err
	}
	return zw, pool, nil
}

func (flateCodec) Compress(dst, src []byte, level int) ([]byte, error) {
	aw := &appendWriter{b: dst}
	zw, pool, err := getFlateWriter(aw, level)
	if err != nil {
		return nil, err
	}
	if _, err := zw.Write(src); err != nil {
		return nil, err
	}
	if err := zw.Close(); err != nil {
		return nil, err
	}
	pool.Put(zw)
	return aw.b, nil
}

var flateReaderPool = sync.Pool{}

func (flateCodec) Decompress(dst, src []byte) error {
	var zr io.ReadCloser
	if pooled, ok := flateReaderPool.Get().(io.ReadCloser); ok {
		if err := pooled.(flate.Resetter).Reset(&byteReader{b: src}, nil); err != nil {
			return err
		}
		zr = pooled
	} else {
		zr = flate.NewReader(&byteReader{b: src})
	}
	if _, err := io.ReadFull(zr, dst); err != nil {
		return fmt.Errorf("%w: flate block: %v", ErrCorrupt, err)
	}
	// The block must decode to exactly the declared length.
	var one [1]byte
	if n, _ := zr.Read(one[:]); n != 0 {
		return fmt.Errorf("%w: flate block longer than declared", ErrCorrupt)
	}
	if err := zr.Close(); err != nil {
		return fmt.Errorf("%w: flate block: %v", ErrCorrupt, err)
	}
	flateReaderPool.Put(zr)
	return nil
}

// byteReader is a minimal allocation-free bytes reader for pooled flate
// readers (bytes.Reader would also work; this avoids retaining large
// backing arrays in the pool via Reset).
type byteReader struct {
	b []byte
	i int
}

func (r *byteReader) Read(p []byte) (int, error) {
	if r.i >= len(r.b) {
		return 0, io.EOF
	}
	n := copy(p, r.b[r.i:])
	r.i += n
	return n, nil
}

func (r *byteReader) ReadByte() (byte, error) {
	if r.i >= len(r.b) {
		return 0, io.EOF
	}
	c := r.b[r.i]
	r.i++
	return c, nil
}
