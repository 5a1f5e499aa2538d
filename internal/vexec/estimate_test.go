package vexec

import (
	"fmt"
	"io"
	"sync"
	"testing"

	"dejaview/internal/simclock"
)

// pinnedImage builds a fixed 40-page image: half of each page is
// repeated text, half a byte ramp, so the sample compresses to a
// nontrivial ratio.
func pinnedImage() *Image {
	img := &Image{MetaBytes: 2 * 512}
	for i := 0; i < 40; i++ {
		data := make([]byte, PageSize)
		s := []byte(fmt.Sprintf("page %d holds word-%d and counter %d; ", i, i*7%13, i*i))
		for off := 0; off+len(s) <= PageSize/2; off += len(s) {
			copy(data[off:], s)
		}
		for j := PageSize / 2; j < PageSize; j++ {
			data[j] = byte((i*131 + j*j) >> 3)
		}
		img.pages = append(img.pages, imagePage{pid: PID(1 + i%2), addr: uint64(i) * PageSize, pg: &page{data: data, gen: uint64(i + 1)}})
	}
	img.MemBytes = int64(len(img.pages)) * PageSize
	return img
}

// TestEstimateCompressedPinned pins the estimator's output for a fixed
// page set: the values are what the estimator gave when it compressed
// a freshly allocated 128 KB sample buffer with a new flate writer per
// call, so recycling the writer must not move them.
func TestEstimateCompressedPinned(t *testing.T) {
	img := pinnedImage()
	for _, tc := range []struct {
		pages int
		want  int64
	}{
		{40, 45021}, // sample capped at 32 pages, extrapolated
		{5, 5841},   // whole payload sampled
		{0, 256},    // metadata only
	} {
		img.pages = img.pages[:tc.pages]
		img.MemBytes = int64(tc.pages) * PageSize
		// Twice: the second call reuses a pooled writer.
		for round := 0; round < 2; round++ {
			if got := estimateCompressed(img); got != tc.want {
				t.Errorf("%d pages, round %d: estimate = %d, want %d", tc.pages, round, got, tc.want)
			}
		}
	}
}

// dirtyProcs spawns n processes with a small mapping each and returns a
// function that dirties a few pages of every one of them.
func dirtyProcs(t *testing.T, c *Container, n int) func(step int) {
	t.Helper()
	type mapping struct {
		p    *Process
		addr uint64
	}
	var ms []mapping
	for i := 0; i < n; i++ {
		p, err := c.Spawn(0, fmt.Sprintf("app%d", i))
		if err != nil {
			t.Fatal(err)
		}
		addr, err := p.Mem().Mmap(8*PageSize, PermRead|PermWrite)
		if err != nil {
			t.Fatal(err)
		}
		ms = append(ms, mapping{p, addr})
	}
	return func(step int) {
		for i, m := range ms {
			for j := 0; j < 3; j++ {
				pg := uint64((step + i + j) % 8)
				msg := []byte(fmt.Sprintf("proc %d step %d page %d", i, step, pg))
				if err := m.p.Mem().Write(m.addr+pg*PageSize, msg); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// TestOverlappedEstimateMatchesSync checks that the size estimate each
// checkpoint computes after resuming equals a synchronous estimate of
// the same image, and that Stats folds every one of them exactly once.
func TestOverlappedEstimateMatchesSync(t *testing.T) {
	c, _, ck, clk := newCkptSession(t, 4)
	dirty := dirtyProcs(t, c, 3)
	var imgs []*Image
	for step := 0; step < 12; step++ {
		dirty(step)
		res, err := ck.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		imgs = append(imgs, res.Image)
		clk.Advance(simclock.Second)
	}
	var sum int64
	for _, img := range imgs {
		got := img.CompressedBytes()
		if want := estimateCompressed(img); got != want {
			t.Errorf("image %d: stored estimate %d, synchronous %d", img.Counter, got, want)
		}
		sum += got
	}
	for i := 0; i < 2; i++ {
		if got := ck.Stats().CompressedBytes; got != sum {
			t.Errorf("Stats call %d: CompressedBytes = %d, want %d", i, got, sum)
		}
	}
}

// TestCheckpointPagesInPIDOrder checks that a checkpoint captures
// processes in PID order, so the serialized image does not depend on
// map iteration.
func TestCheckpointPagesInPIDOrder(t *testing.T) {
	c, _, ck, _ := newCkptSession(t, 100)
	dirty := dirtyProcs(t, c, 5)
	for step := 0; step < 3; step++ {
		dirty(step)
		res, err := ck.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		img := res.Image
		for i := 1; i < len(img.pages); i++ {
			if img.pages[i].pid < img.pages[i-1].pid {
				t.Fatalf("checkpoint %d: page %d of pid %d follows pid %d",
					img.Counter, i, img.pages[i].pid, img.pages[i-1].pid)
			}
		}
		for i := 1; i < len(img.Procs); i++ {
			if img.Procs[i].PID <= img.Procs[i-1].PID {
				t.Fatalf("checkpoint %d: procs out of PID order", img.Counter)
			}
		}
	}
}

// TestEstimateReadersRaceCheckpoints runs the readers of the overlapped
// estimate — Stats, SaveImages, Retain and the image accessor — while
// checkpoints keep coming; under -race this proves every reader joins.
func TestEstimateReadersRaceCheckpoints(t *testing.T) {
	c, _, ck, clk := newCkptSession(t, 5)
	dirty := dirtyProcs(t, c, 2)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	readers := []func(){
		func() { _ = ck.Stats() },
		func() {
			if err := ck.SaveImages(io.Discard); err != nil {
				t.Error(err)
			}
		},
		func() { ck.Retain(func(uint64) bool { return true }) },
		func() {
			if img := ck.Latest(); img != nil {
				_ = img.CompressedBytes()
			}
		},
	}
	for _, read := range readers {
		wg.Add(1)
		go func(read func()) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					read()
				}
			}
		}(read)
	}
	for step := 0; step < 30; step++ {
		dirty(step)
		if _, err := ck.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		clk.Advance(simclock.Second)
	}
	close(stop)
	wg.Wait()
	if got := ck.Stats().Checkpoints; got != 30 {
		t.Errorf("checkpoints = %d, want 30", got)
	}
}
