package compress

import (
	"fmt"
	"testing"
)

// The bench corpus approximates a display record: large, structured,
// moderately compressible. Sized well past BlockSize×8 so every worker
// count has enough independent blocks to stay busy.
var benchData = corpus(16<<20, 42)

// BenchmarkCompressParallel measures Pack throughput at increasing
// worker counts; on a multi-core host throughput should scale near
// linearly until workers exceed cores (≥2x single-worker at 4 workers).
func BenchmarkCompressParallel(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			o := Options{Workers: workers}
			b.SetBytes(int64(len(benchData)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Pack(benchData, o); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCodecs compares pack/unpack throughput and ratio per codec on
// the same corpus; this is the microbench behind the LZS acceptance bar
// (LZS and auto must beat flate on pack throughput at comparable ratio).
func BenchmarkCodecs(b *testing.B) {
	for _, tc := range []struct {
		name string
		id   uint8
	}{{"raw", CodecRaw}, {"flate", CodecFlate}, {"lzs", CodecLZS}, {"auto", CodecAuto}} {
		o := Options{}.WithCodec(tc.id)
		frame, err := Pack(benchData, o)
		if err != nil {
			b.Fatal(err)
		}
		b.Run("pack/"+tc.name, func(b *testing.B) {
			b.SetBytes(int64(len(benchData)))
			b.ReportAllocs()
			b.ReportMetric(float64(len(frame))/float64(len(benchData)), "ratio")
			for i := 0; i < b.N; i++ {
				if _, err := Pack(benchData, o); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("unpack/"+tc.name, func(b *testing.B) {
			b.SetBytes(int64(len(benchData)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Unpack(frame); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStreamWriter measures the pigz-style streaming writer.
func BenchmarkStreamWriter(b *testing.B) {
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.SetBytes(int64(len(benchData)))
			for i := 0; i < b.N; i++ {
				zw, err := NewWriter(discard{}, Options{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := zw.Write(benchData); err != nil {
					b.Fatal(err)
				}
				if err := zw.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }
