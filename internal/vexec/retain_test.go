package vexec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"testing"

	"dejaview/internal/compress"
	"dejaview/internal/lfs"
	"dejaview/internal/simclock"
	"dejaview/internal/unionfs"
)

// buildRetainChain makes a session with a deterministic page-write
// pattern across n checkpoints and returns everything needed to revive.
func buildRetainChain(t *testing.T, n, fullEvery int) (*Container, *lfs.FS, *Checkpointer, uint64, PID) {
	t.Helper()
	c, fs, ck, clk := newCkptSession(t, fullEvery)
	p, _ := c.Spawn(0, "app")
	addr, _ := p.Mem().Mmap(uint64(n+4)*PageSize, PermRead|PermWrite)
	if err := fs.WriteFile("/f", []byte("x")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		// Page i gets its final value at checkpoint i+1; page 0 is
		// rewritten every time so every image has at least one page.
		if err := p.Mem().Write(addr+uint64(i)*PageSize, []byte{byte(0xA0 + i)}); err != nil {
			t.Fatal(err)
		}
		if err := p.Mem().Write(addr, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		clk.Advance(simclock.Second)
		if _, err := ck.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	return c, fs, ck, addr, p.PID()
}

// reviveFingerprint restores checkpoint counter and fingerprints the
// restored memory contents.
func reviveFingerprint(t *testing.T, ck *Checkpointer, fs *lfs.FS, counter uint64, addr uint64, pid PID, nPages int) string {
	t.Helper()
	img, err := ck.Image(counter)
	if err != nil {
		t.Fatal(err)
	}
	view, err := fs.At(img.FSEpoch)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := ck.Restore(counter, unionfs.New(view))
	if err != nil {
		t.Fatalf("restore %d: %v", counter, err)
	}
	rp, err := rr.Container.Process(pid)
	if err != nil {
		t.Fatal(err)
	}
	var fp bytes.Buffer
	for i := 0; i < nPages; i++ {
		b, err := rp.Mem().Read(addr+uint64(i)*PageSize, 1)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&fp, "%02x.", b[0])
	}
	return fp.String()
}

func TestRetainPreservesKeptCheckpoints(t *testing.T) {
	const n = 12
	_, fs, ck, addr, pid := buildRetainChain(t, n, 5)

	keep := map[uint64]bool{2: true, 7: true, 11: true, 12: true}
	before := make(map[uint64]string)
	for counter := range keep {
		before[counter] = reviveFingerprint(t, ck, fs, counter, addr, pid, n+2)
	}

	dropped := ck.Retain(func(c uint64) bool { return keep[c] })
	if dropped != n-len(keep) {
		t.Fatalf("dropped %d images, want %d", dropped, n-len(keep))
	}
	if got := len(ck.ImageInfos()); got != len(keep) {
		t.Fatalf("%d images retained, want %d", got, len(keep))
	}
	for counter := range keep {
		after := reviveFingerprint(t, ck, fs, counter, addr, pid, n+2)
		if after != before[counter] {
			t.Errorf("checkpoint %d changed after retain:\n  before %s\n  after  %s", counter, before[counter], after)
		}
	}
	// Dropped counters are gone.
	if _, err := ck.Image(3); err == nil {
		t.Error("dropped image 3 still present")
	}

	// The thinned chain must survive a save/load cycle (images whose
	// full ancestor was dropped become full themselves; parents
	// re-linked to kept ancestors only).
	var buf bytes.Buffer
	if err := ck.SaveImages(&buf); err != nil {
		t.Fatal(err)
	}
	clk2 := simclock.New()
	k2 := NewKernel(clk2)
	ck2 := NewCheckpointer(k2.NewContainer(fs), fs, fs, DefaultCostModel(), 5)
	if err := loadImages(ck2, buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if ck2.Counter() != ck.Counter() {
		t.Errorf("counter %d after reload, want %d", ck2.Counter(), ck.Counter())
	}
	for counter := range keep {
		after := reviveFingerprint(t, ck2, fs, counter, addr, pid, n+2)
		if after != before[counter] {
			t.Errorf("checkpoint %d changed after retain+reload", counter)
		}
	}
}

func TestRetainAlwaysKeepsNewest(t *testing.T) {
	_, _, ck, _, _ := buildRetainChain(t, 4, 2)
	ck.Retain(func(uint64) bool { return false })
	infos := ck.ImageInfos()
	if len(infos) != 1 || infos[0].Counter != 4 {
		t.Fatalf("retain-nothing kept %+v, want just counter 4", infos)
	}
	if !infos[0].Full {
		t.Error("sole survivor must be full")
	}
}

// TestLazyLoadImages exercises the metadata-first layout end to end:
// a lazy open must not touch page payload until restore, and a restore
// of one checkpoint must fetch only that chain's pages.
func TestLazyLoadImages(t *testing.T) {
	const n = 9
	c, fs, ck, addr, pid := buildRetainChain(t, n, 4)
	want := make(map[uint64]string)
	for _, counter := range []uint64{5, n} {
		want[counter] = reviveFingerprint(t, ck, fs, counter, addr, pid, n+2)
	}

	var buf bytes.Buffer
	if err := ck.SaveImages(&buf); err != nil {
		t.Fatal(err)
	}
	ff, err := compress.OpenFrameBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	src := &countingReaderAt{r: ff}
	ck2 := NewCheckpointer(c.kernel.NewContainer(fs), fs, fs, DefaultCostModel(), 4)
	if err := ck2.LoadImages(src, ff.RawSize()); err != nil {
		t.Fatal(err)
	}
	for _, c := range ck2.order {
		for _, ip := range ck2.images[c].pages {
			if ip.pg.data != nil {
				t.Fatal("lazy load read page bytes before any restore")
			}
		}
	}
	// Count page fetches from here on: restores are the only readers.
	src.reads = 0
	if got := reviveFingerprint(t, ck2, fs, 5, addr, pid, n+2); got != want[5] {
		t.Fatalf("lazy revive of 5 mismatch:\n  %s\n  %s", got, want[5])
	}
	mid := src.reads
	if mid == 0 {
		t.Fatal("restore materialized no pages")
	}
	// Restoring checkpoint 5 must not have pulled pages only reachable
	// from newer images: the newest chain needs more fetches.
	if got := reviveFingerprint(t, ck2, fs, n, addr, pid, n+2); got != want[n] {
		t.Fatalf("lazy revive of %d mismatch", n)
	}
	if src.reads == mid {
		t.Fatal("newer chain restored without fetching its extra pages")
	}

	// A re-save of the lazily opened chain materializes everything and
	// produces a loadable stream, even with a forced codec (the tier
	// compactor's recompression path).
	var buf2 bytes.Buffer
	if err := ck2.SaveImagesOptions(&buf2, compress.Options{Codec: compress.CodecFlate}); err != nil {
		t.Fatal(err)
	}
	clk3 := simclock.New()
	k3 := NewKernel(clk3)
	ck3 := NewCheckpointer(k3.NewContainer(fs), fs, fs, DefaultCostModel(), 4)
	if err := loadImages(ck3, buf2.Bytes()); err != nil {
		t.Fatal(err)
	}
	if got := reviveFingerprint(t, ck3, fs, n, addr, pid, n+2); got != want[n] {
		t.Fatalf("re-saved chain revive mismatch")
	}
}

// countingReaderAt counts the reads made through it.
type countingReaderAt struct {
	r     io.ReaderAt
	reads int
}

func (c *countingReaderAt) ReadAt(p []byte, off int64) (int, error) {
	c.reads++
	return c.r.ReadAt(p, off)
}

// TestLoadImagesV1 keeps the legacy DEJVIMG1 layout (each page's bytes
// inline after its generation) loadable, framed or raw: it revives to
// the same state as the chain it was built from, and trailing bytes
// after the chain are corruption.
func TestLoadImagesV1(t *testing.T) {
	const n = 6
	c, fs, ck, addr, pid := buildRetainChain(t, n, 3)
	want := reviveFingerprint(t, ck, fs, n, addr, pid, n+2)

	var buf bytes.Buffer
	if err := ck.SaveImages(&buf); err != nil {
		t.Fatal(err)
	}
	v2, err := compress.Unpack(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	// Splice the DEJVIMG2 stream into the inline layout: magic, counter,
	// lastGen and the pool size head both; v2 then lists every page's
	// generation, and v1 follows each with the page's bytes.
	pool := int(binary.LittleEndian.Uint32(v2[24:]))
	base := len(v2) - pool*PageSize
	v1 := binary.LittleEndian.AppendUint64(nil, imgMagic)
	v1 = append(v1, v2[8:28]...)
	for i := 0; i < pool; i++ {
		v1 = append(v1, v2[28+8*i:36+8*i]...)
		v1 = append(v1, v2[base+i*PageSize:base+(i+1)*PageSize]...)
	}
	v1 = append(v1, v2[28+8*pool:base]...)

	framed, err := compress.Pack(v1, compress.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for name, stored := range map[string][]byte{"raw": v1, "framed": framed} {
		ck2 := NewCheckpointer(c.kernel.NewContainer(fs), fs, fs, DefaultCostModel(), 3)
		if err := loadImages(ck2, stored); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := reviveFingerprint(t, ck2, fs, n, addr, pid, n+2); got != want {
			t.Errorf("%s: v1 revive mismatch:\n  %s\n  %s", name, got, want)
		}
	}
	ck3 := NewCheckpointer(c.kernel.NewContainer(fs), fs, fs, DefaultCostModel(), 3)
	if err := loadImages(ck3, append(v1, 0)); !errors.Is(err, ErrCorruptImages) {
		t.Errorf("v1 chain with a trailing byte: %v, want ErrCorruptImages", err)
	}
}
