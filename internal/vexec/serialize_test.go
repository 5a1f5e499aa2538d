package vexec

import (
	"bytes"
	"errors"
	"testing"

	"dejaview/internal/compress"
	"dejaview/internal/lfs"
	"dejaview/internal/simclock"
	"dejaview/internal/unionfs"
)

func TestImageSerializationRoundTrip(t *testing.T) {
	c, fs, ck, clk := newCkptSession(t, 3)
	p, _ := c.Spawn(0, "app")
	q, _ := c.Spawn(p.PID(), "child")
	q.SetRegs(Registers{PC: 0x1234, GPR: [8]uint64{9, 8, 7}})
	addr, _ := p.Mem().Mmap(8*PageSize, PermRead|PermWrite)
	if err := fs.WriteFile("/doc", []byte("archived content")); err != nil {
		t.Fatal(err)
	}
	fd, _ := q.Open("/doc")
	if _, err := c.Connect(q, ProtoTCP, "127.0.0.1:1", "127.0.0.1:2"); err != nil {
		t.Fatal(err)
	}
	// A short incremental chain with page changes.
	for i := 0; i < 5; i++ {
		if err := p.Mem().Write(addr+uint64(i)*PageSize, []byte{byte(0x50 + i)}); err != nil {
			t.Fatal(err)
		}
		clk.Advance(simclock.Second)
		if _, err := ck.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}

	var buf bytes.Buffer
	if err := ck.SaveImages(&buf); err != nil {
		t.Fatal(err)
	}

	// Load into a fresh checkpointer over the same kernel/FS.
	clk2 := simclock.New()
	clk2.Set(clk.Now())
	k2 := NewKernel(clk2)
	c2 := k2.NewContainer(fs)
	ck2 := NewCheckpointer(c2, fs, fs, DefaultCostModel(), 3)
	if err := loadImages(ck2, buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if ck2.Counter() != ck.Counter() {
		t.Errorf("counter %d vs %d", ck2.Counter(), ck.Counter())
	}
	// Image metadata survives.
	img, err := ck2.Image(3)
	if err != nil {
		t.Fatal(err)
	}
	if !img.Full { // fullEvery=3: counters 1 and 4 are full
		// counter%3==0 -> full when counter was 0 or 3... fullEvery=3
		// makes checkpoints 1 and 4 full (counter%3==0 before increment).
		t.Log("image 3 incremental as expected")
	}

	// Revive the last checkpoint from the reloaded chain and verify
	// everything.
	last := ck2.Latest()
	view, err := fs.At(last.FSEpoch)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := ck2.Restore(last.Counter, unionfs.New(view))
	if err != nil {
		t.Fatal(err)
	}
	rp, err := rr.Container.Process(p.PID())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		got, err := rp.Mem().Read(addr+uint64(i)*PageSize, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != byte(0x50+i) {
			t.Errorf("page %d = %#x, want %#x", i, got[0], 0x50+i)
		}
	}
	rq, err := rr.Container.Process(q.PID())
	if err != nil {
		t.Fatal(err)
	}
	if rq.Regs().PC != 0x1234 || rq.Regs().GPR[2] != 7 {
		t.Errorf("registers lost: %+v", rq.Regs())
	}
	if rq.PPID() != p.PID() {
		t.Error("forest lost")
	}
	rf, err := rq.FileByFD(fd)
	if err != nil {
		t.Fatal(err)
	}
	data, err := rf.Read(rr.Container.FS())
	if err != nil || string(data) != "archived content" {
		t.Errorf("file read = %q, %v", data, err)
	}
	if len(rq.Sockets()) != 1 {
		t.Error("socket lost")
	}
}

func TestImagePageDeduplication(t *testing.T) {
	// A page unchanged across checkpoints must serialize once.
	c, _, ck, _ := newCkptSession(t, 100)
	p, _ := c.Spawn(0, "app")
	addr, _ := p.Mem().Mmap(64*PageSize, PermRead|PermWrite)
	for i := uint64(0); i < 64; i++ {
		if err := p.Mem().Write(addr+i*PageSize, []byte{1}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ck.Checkpoint(); err != nil { // full: 64 pages
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ { // idle incrementals: 0 new pages
		if _, err := ck.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := ck.SaveImages(&buf); err != nil {
		t.Fatal(err)
	}
	// 64 pages * 4KiB = 256 KiB; anything far beyond means duplication.
	if buf.Len() > 300*1024 {
		t.Errorf("serialized %d bytes for 64 distinct pages", buf.Len())
	}
}

// loadImages loads a saved image stream into ck the way an archive open
// does: sniff the stored bytes into a decoded stream, then load that.
func loadImages(ck *Checkpointer, stored []byte) error {
	ff, err := compress.OpenStream(bytes.NewReader(stored), int64(len(stored)))
	if err != nil {
		return err
	}
	return ck.LoadImages(ff, ff.RawSize())
}

// TestLoadImagesRejectsPayloadGap: the metadata section must end exactly
// where the page payload starts. A stream with bytes between the two
// would shift every page, so it is corrupt rather than loadable.
func TestLoadImagesRejectsPayloadGap(t *testing.T) {
	c, _, ck, _ := newCkptSession(t, 10)
	p, _ := c.Spawn(0, "app")
	addr, _ := p.Mem().Mmap(4*PageSize, PermRead|PermWrite)
	for i := 0; i < 4; i++ {
		if err := p.Mem().Write(addr+uint64(i)*PageSize, []byte{byte(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ck.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ck.SaveImages(&buf); err != nil {
		t.Fatal(err)
	}
	raw, err := compress.Unpack(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	pages := map[*page]bool{}
	for _, c := range ck.order {
		for _, ip := range ck.images[c].pages {
			pages[ip.pg] = true
		}
	}
	base := len(raw) - len(pages)*PageSize
	gapped := append(append(append([]byte(nil), raw[:base]...), make([]byte, 64)...), raw[base:]...)
	fresh := NewArchiveCheckpointer(DefaultCostModel(), 10)
	if err := fresh.LoadImages(bytes.NewReader(raw), int64(len(raw))); err != nil {
		t.Fatalf("intact stream: %v", err)
	}
	fresh = NewArchiveCheckpointer(DefaultCostModel(), 10)
	if err := fresh.LoadImages(bytes.NewReader(gapped), int64(len(gapped))); !errors.Is(err, ErrCorruptImages) {
		t.Fatalf("stream with a 64-byte gap before the payload: %v, want ErrCorruptImages", err)
	}
}

func TestLoadImagesRejectsGarbage(t *testing.T) {
	clk := simclock.New()
	k := NewKernel(clk)
	fs := lfs.New()
	c := k.NewContainer(fs)
	ck := NewCheckpointer(c, fs, fs, DefaultCostModel(), 10)
	if err := loadImages(ck, []byte("garbage stream")); err == nil {
		t.Error("garbage accepted")
	}

	// Truncations of a real stream fail cleanly.
	c2, _, ck2, _ := newCkptSession(t, 10)
	p, _ := c2.Spawn(0, "app")
	addr, _ := p.Mem().Mmap(PageSize, PermRead|PermWrite)
	if err := p.Mem().Write(addr, []byte{1}); err != nil {
		t.Fatal(err)
	}
	if _, err := ck2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ck2.SaveImages(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// The block table sits past the frame terminator; truncations inside
	// the logical stream must fail, measured against the table-less end.
	logical := len(compress.TrimTable(full))
	for _, cut := range []int{4, 20, logical / 2, logical - 2} {
		if err := loadImages(ck, full[:cut]); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
	// Losing only table bytes leaves a complete logical stream: without
	// its footer the frame is indexed by a header scan and still loads.
	if err := loadImages(ck, full[:len(full)-2]); err != nil {
		t.Errorf("table-only truncation rejected: %v", err)
	}
	if err := loadImages(ck, full); err != nil {
		t.Errorf("valid stream rejected after failures: %v", err)
	}
	if !errors.Is(loadImages(ck, append([]byte("BADMAGIC"), full[8:]...)), ErrCorruptImages) {
		t.Error("bad magic not reported as corruption")
	}
}
