package vexec

import (
	"bytes"
	"testing"

	"dejaview/internal/unionfs"
)

func TestPtraceStateRoundTrips(t *testing.T) {
	c, fs, ck, _ := newCkptSession(t, 10)
	gdb, _ := c.Spawn(0, "gdb")
	app, _ := c.Spawn(gdb.PID(), "app")
	app.Ptrace(gdb.PID())
	if app.Tracer() != gdb.PID() {
		t.Fatal("ptrace attach lost")
	}
	res, err := ck.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	// Direct revive.
	view, _ := fs.At(res.Image.FSEpoch)
	rr, err := ck.Restore(res.Image.Counter, unionfs.New(view))
	if err != nil {
		t.Fatal(err)
	}
	rApp, _ := rr.Container.Process(app.PID())
	if rApp.Tracer() != gdb.PID() {
		t.Error("ptrace information lost across revive")
	}

	// Through serialization too.
	var buf bytes.Buffer
	if err := ck.SaveImages(&buf); err != nil {
		t.Fatal(err)
	}
	ck2 := NewCheckpointer(c, fs, fs, DefaultCostModel(), 10)
	if err := loadImages(ck2, buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	img, err := ck2.Image(res.Image.Counter)
	if err != nil {
		t.Fatal(err)
	}
	var found bool
	for _, pi := range img.Procs {
		if pi.PID == app.PID() && pi.Tracer == gdb.PID() {
			found = true
		}
	}
	if !found {
		t.Error("ptrace information lost across serialization")
	}
	// Detach works.
	app.Ptrace(0)
	if app.Tracer() != 0 {
		t.Error("detach failed")
	}
}
