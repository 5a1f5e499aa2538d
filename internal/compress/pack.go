package compress

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sync"

	"dejaview/internal/obs"
)

// Registry instruments for the block pipeline. Every block that goes
// through Pack/Writer bumps blocks_packed, every block FrameFile decodes
// bumps blocks_unpacked — so for any saved-then-reopened artifact the
// two deltas must agree, which the e2e metrics-regression test locks
// in. unpack_ms times whole-stream reads.
var (
	obsBlocksPacked   = obs.Default.Counter("compress.blocks_packed")
	obsBlocksUnpacked = obs.Default.Counter("compress.blocks_unpacked")
	obsPackMS         = obs.Default.Histogram("compress.pack_ms", obs.LatencyBuckets...)
	obsUnpackMS       = obs.Default.Histogram("compress.unpack_ms", obs.LatencyBuckets...)
	obsPoolDepth      = obs.Default.Histogram("compress.pool_depth", obs.DepthBuckets...)
	obsPoolInflight   = obs.Default.Gauge("compress.pool_inflight")
)

// Pack compresses data into a self-contained frame: a header followed by
// independently coded blocks, each carrying its uncompressed length and
// a CRC32 of its uncompressed bytes. Blocks are compressed in parallel
// by o.Workers goroutines; a block that entropy coding fails to shrink
// is stored verbatim (with the storedRawBit marker) so Pack never
// expands incompressible data by more than the fixed framing overhead.
func Pack(data []byte, o Options) ([]byte, error) {
	t0 := obs.StartTimer()
	defer t0.Done(obsPackMS)
	o = o.withDefaults()
	auto := o.Codec == CodecAuto
	var c Codec
	if !auto {
		var err error
		if c, err = codecByID(o.Codec); err != nil {
			return nil, err
		}
	}
	nBlocks := (len(data) + o.BlockSize - 1) / o.BlockSize

	blocks := make([][]byte, nBlocks)
	blockIDs := make([]uint8, nBlocks)
	crcs := make([]uint32, nBlocks)
	compressBlock := func(i int) error {
		raw := data[i*o.BlockSize : min((i+1)*o.BlockSize, len(data))]
		crcs[i] = crc32.ChecksumIEEE(raw)
		bc, id := c, o.Codec
		if auto {
			id = selectCodecID(raw)
			countAuto(id)
			if id == CodecRaw {
				blockIDs[i] = CodecRaw // store verbatim, skip coding
				return nil
			}
			var err error
			if bc, err = codecByID(id); err != nil {
				return err
			}
		}
		enc, err := bc.Compress(make([]byte, 0, len(raw)/2+64), raw, o.Level)
		if err != nil {
			return err
		}
		blocks[i] = enc
		blockIDs[i] = id
		return nil
	}
	if err := runBlocks(nBlocks, o.Workers, compressBlock); err != nil {
		return nil, err
	}
	obsBlocksPacked.Add(uint64(nBlocks))

	// Assemble sequentially: header, coded blocks, terminator.
	total := headerSize + blockHeaderSize // terminator
	for i, enc := range blocks {
		raw := blockLen(i, o.BlockSize, len(data))
		if enc == nil {
			total += blockHeaderSize + raw
		} else {
			total += blockHeaderSize + min(len(enc), raw)
		}
	}
	out := make([]byte, 0, total)
	out = appendHeader(out, o.Codec)
	var table []tableEntry
	for i, enc := range blocks {
		rawLen := blockLen(i, o.BlockSize, len(data))
		off := int64(len(out))
		var compLen uint32
		if enc == nil || len(enc) >= rawLen {
			// Selected raw, or coding failed to shrink: store the
			// original bytes.
			compLen = uint32(rawLen) | storedRawBit
			out = appendBlockHeader(out, compLen, uint32(rawLen), crcs[i])
			out = append(out, data[i*o.BlockSize:i*o.BlockSize+rawLen]...)
		} else {
			compLen = uint32(len(enc))
			if auto {
				compLen |= uint32(blockIDs[i]) << blockCodecShift
			}
			if blockIDs[i] == CodecLZS {
				obsLZSBlocks.Inc()
			}
			out = appendBlockHeader(out, compLen, uint32(rawLen), crcs[i])
			out = append(out, enc...)
		}
		if o.BlockTable {
			table = append(table, tableEntry{off: off, compLen: compLen, rawLen: uint32(rawLen)})
		}
	}
	out = appendBlockHeader(out, 0, 0, 0) // terminator
	if o.BlockTable {
		out = appendBlockTable(out, table, int64(len(out)))
	}
	return out, nil
}

// Unpack decodes a frame produced by Pack (or Writer) in one
// whole-stream read, decompressing blocks in parallel and verifying
// every block's CRC32. It returns ErrCorrupt (possibly wrapped) for
// truncated frames, bad magic, CRC mismatches, and implausible block
// lengths.
func Unpack(frame []byte) ([]byte, error) {
	f, err := OpenFrameBytes(frame)
	if err != nil {
		return nil, err
	}
	return f.ReadAll()
}

// frameDecoder resolves a frame-header codec id to the codec decoding
// every block, or nil for CodecAuto frames (each block names its own).
func frameDecoder(id uint8) (Codec, error) {
	if id == CodecAuto {
		return nil, nil
	}
	return codecByID(id)
}

// resolveBlock validates one block header's flag bits against the frame
// codec and returns the coded payload length and the codec that decodes
// the block (nil for stored blocks). All length-plausibility checks run
// here, before any caller allocates for the block.
func resolveBlock(frameID uint8, frameC Codec, compLen, rawLen uint32) (n uint32, dec Codec, err error) {
	isStored := compLen&storedRawBit != 0
	blockID := uint8((compLen & blockCodecMask) >> blockCodecShift)
	n = compLen &^ (storedRawBit | blockCodecMask)
	if rawLen > MaxBlockSize {
		return 0, nil, fmt.Errorf("%w: block claims %d uncompressed bytes (max %d)", ErrCorrupt, rawLen, MaxBlockSize)
	}
	if frameID != CodecAuto && blockID != 0 {
		return 0, nil, fmt.Errorf("%w: block codec bits %d in single-codec frame", ErrCorrupt, blockID)
	}
	if isStored {
		if blockID != 0 {
			return 0, nil, fmt.Errorf("%w: stored block carries codec bits %d", ErrCorrupt, blockID)
		}
		if n != rawLen {
			return 0, nil, fmt.Errorf("%w: stored block lengths disagree (%d vs %d)", ErrCorrupt, n, rawLen)
		}
		return n, nil, nil
	}
	if n >= rawLen || uint64(rawLen) > uint64(n)*maxBlockRatio+64 {
		return 0, nil, fmt.Errorf("%w: implausible block expansion (%d coded to %d raw bytes)", ErrCorrupt, n, rawLen)
	}
	if frameID == CodecAuto {
		if blockID == 0 {
			return 0, nil, fmt.Errorf("%w: auto-frame coded block missing codec id", ErrCorrupt)
		}
		if dec, err = codecByID(blockID); err != nil {
			return 0, nil, err
		}
		return n, dec, nil
	}
	return n, frameC, nil
}

// FrameStats summarizes a frame without decoding any payload: the header
// codec id and how many blocks each codec actually coded. Stored blocks
// (verbatim bytes) count under "raw". Golden-format tests and dvgc use
// it (FrameFile.Stats) to see what an adaptive frame actually chose.
type FrameStats struct {
	// Codec is the frame-header codec id (CodecAuto for adaptive frames).
	Codec uint8
	// Blocks is the total block count.
	Blocks int
	// PerCodec maps codec name ("raw", "lzs", "flate") to blocks coded
	// with it.
	PerCodec map[string]int
}

// runBlocks runs fn(0..n-1) across up to workers goroutines and returns
// the first error.
func runBlocks(n, workers int, fn func(i int) error) error {
	if n == 0 {
		return nil
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if err := fn(i); err != nil {
					errOnce.Do(func() { firstErr = err })
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	return firstErr
}

func blockLen(i, blockSize, total int) int {
	return min((i+1)*blockSize, total) - i*blockSize
}

func appendHeader(dst []byte, codec uint8) []byte {
	dst = append(dst, frameMagic[:]...)
	return append(dst, frameVersion, codec, 0, 0)
}

func parseHeader(frame []byte) (codec uint8, body []byte, err error) {
	if len(frame) < headerSize {
		return 0, nil, fmt.Errorf("%w: %d-byte frame is shorter than the header", ErrCorrupt, len(frame))
	}
	if !hasMagic(frame) {
		return 0, nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, frame[:4])
	}
	if frame[4] != frameVersion {
		return 0, nil, fmt.Errorf("%w: unsupported frame version %d", ErrCorrupt, frame[4])
	}
	return frame[5], frame[headerSize:], nil
}

func appendBlockHeader(dst []byte, compLen, rawLen, crc uint32) []byte {
	var h [blockHeaderSize]byte
	binary.LittleEndian.PutUint32(h[0:], compLen)
	binary.LittleEndian.PutUint32(h[4:], rawLen)
	binary.LittleEndian.PutUint32(h[8:], crc)
	return append(dst, h[:]...)
}

// parseBlockHeader decodes the blockHeaderSize bytes at the start of b.
func parseBlockHeader(b []byte) (compLen, rawLen, crc uint32) {
	return binary.LittleEndian.Uint32(b[0:]),
		binary.LittleEndian.Uint32(b[4:]),
		binary.LittleEndian.Uint32(b[8:])
}
