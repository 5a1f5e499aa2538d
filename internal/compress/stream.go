package compress

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"dejaview/internal/failpoint"
)

// Writer streams a frame to an underlying io.Writer, compressing blocks
// on a worker pool as they fill (pigz-style): Write slices input into
// blocks, hands each block to a worker, and a bounded in-order queue
// keeps at most ~2×Workers blocks in flight, so throughput scales with
// cores while memory stays bounded. Close flushes the final partial
// block and writes the terminator; the frame is not readable until
// Close returns.
type Writer struct {
	w       io.Writer
	o       Options
	codec   Codec // nil when the frame is CodecAuto
	buf     []byte
	jobs    chan wjob
	pending []chan wres // FIFO of in-flight blocks, oldest first
	err     error
	closed  bool

	// off counts bytes written so far; table accumulates per-block
	// offsets when o.BlockTable is set (appended after the terminator
	// by Close).
	off   int64
	table []tableEntry
}

type wjob struct {
	raw []byte
	res chan wres
}

type wres struct {
	framed []byte // block header + payload, ready to write
	err    error
}

// NewWriter starts a streaming compressor over w.
func NewWriter(w io.Writer, o Options) (*Writer, error) {
	w = failpoint.Writer("compress/writer", w)
	o = o.withDefaults()
	c, err := frameDecoder(o.Codec)
	if err != nil {
		return nil, err
	}
	zw := &Writer{
		w:     w,
		o:     o,
		codec: c,
		buf:   make([]byte, 0, o.BlockSize),
		jobs:  make(chan wjob),
	}
	for i := 0; i < o.Workers; i++ {
		go zw.worker()
	}
	if _, err := w.Write(appendHeader(nil, o.Codec)); err != nil {
		zw.fail(err)
		return nil, err
	}
	zw.off = headerSize
	return zw, nil
}

func (zw *Writer) worker() {
	for j := range zw.jobs {
		j.res <- encodeBlock(zw.codec, zw.o.Level, j.raw)
	}
}

// encodeBlock produces a fully framed block (header + payload) for raw.
// A nil codec means the frame is CodecAuto: the worker selects a codec
// per block and records the choice in the block header's codec bits.
func encodeBlock(c Codec, level int, raw []byte) wres {
	crc := crc32.ChecksumIEEE(raw)
	auto := c == nil
	id := uint8(0)
	if auto {
		id = selectCodecID(raw)
		countAuto(id)
		if id == CodecRaw {
			return storedBlock(raw, crc)
		}
		var err error
		if c, err = codecByID(id); err != nil {
			return wres{err: err}
		}
	}
	enc, err := c.Compress(make([]byte, 0, len(raw)/2+64), raw, level)
	if err != nil {
		return wres{err: err}
	}
	if len(enc) >= len(raw) {
		return storedBlock(raw, crc)
	}
	compLen := uint32(len(enc))
	if auto {
		compLen |= uint32(id) << blockCodecShift
	}
	if (auto && id == CodecLZS) || (!auto && c.ID() == CodecLZS) {
		obsLZSBlocks.Inc()
	}
	framed := appendBlockHeader(make([]byte, 0, blockHeaderSize+len(enc)), compLen, uint32(len(raw)), crc)
	return wres{framed: append(framed, enc...)}
}

// storedBlock frames raw verbatim under storedRawBit.
func storedBlock(raw []byte, crc uint32) wres {
	framed := appendBlockHeader(make([]byte, 0, blockHeaderSize+len(raw)), uint32(len(raw))|storedRawBit, uint32(len(raw)), crc)
	return wres{framed: append(framed, raw...)}
}

func (zw *Writer) fail(err error) {
	if zw.err == nil {
		zw.err = err
	}
}

// Write implements io.Writer.
func (zw *Writer) Write(p []byte) (int, error) {
	if zw.closed {
		return 0, fmt.Errorf("compress: write after Close")
	}
	if zw.err != nil {
		return 0, zw.err
	}
	written := len(p)
	for len(p) > 0 {
		n := copy(zw.buf[len(zw.buf):zw.o.BlockSize], p)
		zw.buf = zw.buf[:len(zw.buf)+n]
		p = p[n:]
		if len(zw.buf) == zw.o.BlockSize {
			if err := zw.dispatch(); err != nil {
				return 0, err
			}
		}
	}
	return written, nil
}

// dispatch hands the current block to the pool and drains completed
// blocks once enough are in flight to keep every worker busy.
func (zw *Writer) dispatch() error {
	res := make(chan wres, 1)
	zw.jobs <- wjob{raw: zw.buf, res: res}
	zw.pending = append(zw.pending, res)
	obsPoolInflight.Add(1)
	obsPoolDepth.Observe(float64(len(zw.pending)))
	zw.buf = make([]byte, 0, zw.o.BlockSize)
	for len(zw.pending) > 2*zw.o.Workers {
		if err := zw.drainOne(); err != nil {
			return err
		}
	}
	return nil
}

func (zw *Writer) drainOne() error {
	r := <-zw.pending[0]
	zw.pending = zw.pending[1:]
	obsPoolInflight.Add(-1)
	if r.err != nil {
		zw.fail(r.err)
		return zw.err
	}
	if _, err := zw.w.Write(r.framed); err != nil {
		zw.fail(err)
		return zw.err
	}
	if zw.o.BlockTable {
		zw.table = append(zw.table, tableEntry{
			off:     zw.off,
			compLen: binary.LittleEndian.Uint32(r.framed[0:]),
			rawLen:  binary.LittleEndian.Uint32(r.framed[4:]),
		})
	}
	zw.off += int64(len(r.framed))
	obsBlocksPacked.Inc()
	return zw.err
}

// Close flushes all in-flight blocks, writes the frame terminator, and
// stops the worker pool. It does not close the underlying writer.
func (zw *Writer) Close() error {
	if zw.closed {
		return zw.err
	}
	zw.closed = true
	if len(zw.buf) > 0 && zw.err == nil {
		res := make(chan wres, 1)
		zw.jobs <- wjob{raw: zw.buf, res: res}
		zw.pending = append(zw.pending, res)
		obsPoolInflight.Add(1)
		zw.buf = nil
	}
	for len(zw.pending) > 0 {
		if err := zw.drainOne(); err != nil {
			// Keep draining so workers do not block on res sends.
			for _, res := range zw.pending {
				<-res
			}
			obsPoolInflight.Add(-int64(len(zw.pending)))
			zw.pending = nil
		}
	}
	close(zw.jobs)
	if zw.err == nil {
		if _, err := zw.w.Write(appendBlockHeader(nil, 0, 0, 0)); err != nil {
			zw.fail(err)
		}
		zw.off += blockHeaderSize
	}
	if zw.err == nil && zw.o.BlockTable {
		if _, err := zw.w.Write(appendBlockTable(nil, zw.table, zw.off)); err != nil {
			zw.fail(err)
		}
	}
	return zw.err
}

// MaybeReader reads r to the end and sniffs it like OpenStream: a frame
// reads back decoded, anything else (a v1 raw stream) unchanged. Close
// is a no-op.
func MaybeReader(r io.Reader) (io.ReadCloser, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	f, err := OpenStream(bytes.NewReader(b), int64(len(b)))
	if err != nil {
		return nil, err
	}
	return io.NopCloser(f.SequentialReader()), nil
}
