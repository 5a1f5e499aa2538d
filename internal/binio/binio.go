// Package binio provides small error-sticky binary readers and writers
// for the archive serialization formats (little-endian throughout). The
// first error sticks; callers check once at the end.
package binio

import (
	"bufio"
	"encoding/binary"
	"io"
)

// Writer is an error-sticky little-endian writer.
type Writer struct {
	w   *bufio.Writer
	err error
}

// NewWriter wraps w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: bufio.NewWriter(w)} }

// Err reports the first error.
func (bw *Writer) Err() error { return bw.err }

// Flush flushes buffered output and returns the first error.
func (bw *Writer) Flush() error {
	if bw.err != nil {
		return bw.err
	}
	return bw.w.Flush()
}

// Bytes writes raw bytes.
func (bw *Writer) Bytes(b []byte) {
	if bw.err != nil {
		return
	}
	_, bw.err = bw.w.Write(b)
}

// U8 writes one byte.
func (bw *Writer) U8(v uint8) { bw.Bytes([]byte{v}) }

// Bool writes a boolean as one byte.
func (bw *Writer) Bool(v bool) {
	if v {
		bw.U8(1)
	} else {
		bw.U8(0)
	}
}

// U16 writes a little-endian uint16.
func (bw *Writer) U16(v uint16) {
	var b [2]byte
	binary.LittleEndian.PutUint16(b[:], v)
	bw.Bytes(b[:])
}

// U32 writes a little-endian uint32.
func (bw *Writer) U32(v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	bw.Bytes(b[:])
}

// U64 writes a little-endian uint64.
func (bw *Writer) U64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	bw.Bytes(b[:])
}

// String writes a 16-bit length-prefixed string.
func (bw *Writer) String(s string) {
	bw.U16(uint16(len(s)))
	bw.Bytes([]byte(s))
}

// Blob writes a 32-bit length-prefixed byte slice.
func (bw *Writer) Blob(b []byte) {
	bw.U32(uint32(len(b)))
	bw.Bytes(b)
}

// Reader is an error-sticky little-endian reader.
type Reader struct {
	r   *bufio.Reader
	n   int64 // bytes consumed
	err error
	// Limit caps individual Blob/String allocations.
	Limit uint32
}

// NewReader wraps r with a 64 MiB allocation cap.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: bufio.NewReader(r), Limit: 64 << 20}
}

// Err reports the first error.
func (br *Reader) Err() error { return br.err }

// Fail records an error if none is recorded yet.
func (br *Reader) Fail(err error) {
	if br.err == nil {
		br.err = err
	}
}

// Bytes reads exactly n bytes.
func (br *Reader) Bytes(n int) []byte {
	if br.err != nil {
		return nil
	}
	if uint32(n) > br.Limit {
		br.err = io.ErrUnexpectedEOF
		return nil
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(br.r, b); err != nil {
		br.err = err
		return nil
	}
	br.n += int64(n)
	return b
}

// Offset reports how many bytes the reader has consumed: the stream
// position of the next read, read-ahead buffering notwithstanding.
func (br *Reader) Offset() int64 { return br.n }

// U8 reads one byte.
func (br *Reader) U8() uint8 {
	b := br.Bytes(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads a one-byte boolean.
func (br *Reader) Bool() bool { return br.U8() != 0 }

// U16 reads a little-endian uint16.
func (br *Reader) U16() uint16 {
	b := br.Bytes(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

// U32 reads a little-endian uint32.
func (br *Reader) U32() uint32 {
	b := br.Bytes(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a little-endian uint64.
func (br *Reader) U64() uint64 {
	b := br.Bytes(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// String reads a 16-bit length-prefixed string.
func (br *Reader) String() string { return string(br.Bytes(int(br.U16()))) }

// Blob reads a 32-bit length-prefixed byte slice.
func (br *Reader) Blob() []byte { return br.Bytes(int(br.U32())) }
