package e2e

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"dejaview/internal/core"
	"dejaview/internal/index"
	"dejaview/internal/vexec"
)

// Replay-divergence harness in the rr tradition: the whole point of a
// deterministic record pipeline is that recording the same workload
// twice yields the same bits. Each scenario is built twice from scratch
// and the two runs are compared at every persisted layer — the vexec
// checkpoint-image event stream, every archive file byte for byte, and
// the WYSIWYS fingerprint. Any nondeterminism smuggled into the record
// path (map iteration, wall-clock reads, unseeded randomness) shows up
// here as a first-divergence offset instead of as an unreproducible
// flake somewhere downstream.

// firstDiff returns the offset of the first differing byte, or -1.
func firstDiff(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return n
	}
	return -1
}

// archiveFiles maps each file in the archive tree (relative path) to its
// contents.
func archiveFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	files := map[string][]byte{}
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		files[rel] = b
		return nil
	})
	if err != nil {
		t.Fatalf("walk %s: %v", dir, err)
	}
	return files
}

// multiProcScenario has every application's process dirty pages each
// step, so each incremental checkpoint captures pages of several
// processes: their order in the image must not follow map iteration.
func multiProcScenario() *Scenario {
	names := []string{"editor", "browser", "terminal"}
	return &Scenario{
		Name:    "multiproc",
		Steps:   10,
		Queries: []index.Query{{All: []string{"alpha"}}},
		setup: func(d *driver) error {
			for _, name := range names {
				if err := d.app(name, name); err != nil {
					return err
				}
			}
			return nil
		},
		step: func(d *driver, i int) error {
			if err := d.act(names[i%len(names)], i); err != nil {
				return err
			}
			for k, name := range names {
				addr := d.mem[name] + uint64((i+k)%32)*vexec.PageSize
				if err := d.procs[name].Mem().Write(addr, []byte(name+" "+word(i+k))); err != nil {
					return err
				}
			}
			return nil
		},
	}
}

func TestReplayDivergence(t *testing.T) {
	for _, sc := range append(Scenarios(), multiProcScenario()) {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			s1, err := Build(sc, core.Config{})
			if err != nil {
				t.Fatalf("first build: %v", err)
			}
			s2, err := Build(sc, core.Config{})
			if err != nil {
				t.Fatalf("second build: %v", err)
			}

			// The vexec event streams — every checkpoint image the two
			// runs took, serialized — must be bit-identical.
			var ev1, ev2 bytes.Buffer
			if err := s1.Checkpointer().SaveImages(&ev1); err != nil {
				t.Fatalf("first image stream: %v", err)
			}
			if err := s2.Checkpointer().SaveImages(&ev2); err != nil {
				t.Fatalf("second image stream: %v", err)
			}
			if off := firstDiff(ev1.Bytes(), ev2.Bytes()); off >= 0 {
				t.Errorf("vexec event streams diverge at byte %d (lengths %d vs %d)",
					off, ev1.Len(), ev2.Len())
			}

			// Every persisted archive file must be bit-identical too: the
			// record command log, the search index, the checkpoint images,
			// the file system, and the metadata.
			d1 := filepath.Join(t.TempDir(), "run1")
			d2 := filepath.Join(t.TempDir(), "run2")
			if err := s1.SaveArchive(d1); err != nil {
				t.Fatalf("first archive: %v", err)
			}
			if err := s2.SaveArchive(d2); err != nil {
				t.Fatalf("second archive: %v", err)
			}
			f1 := archiveFiles(t, d1)
			f2 := archiveFiles(t, d2)
			var names []string
			for name := range f1 {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				b2, ok := f2[name]
				if !ok {
					t.Errorf("%s: present in run 1 only", name)
					continue
				}
				if off := firstDiff(f1[name], b2); off >= 0 {
					t.Errorf("%s diverges at byte %d (lengths %d vs %d)",
						name, off, len(f1[name]), len(b2))
				}
			}
			for name := range f2 {
				if _, ok := f1[name]; !ok {
					t.Errorf("%s: present in run 2 only", name)
				}
			}

			// And the observable end state agrees, query results included.
			fp1, err := Snapshot(Live(s1), sc.Queries)
			if err != nil {
				t.Fatalf("first snapshot: %v", err)
			}
			fp2, err := Snapshot(Live(s2), sc.Queries)
			if err != nil {
				t.Fatalf("second snapshot: %v", err)
			}
			if !reflect.DeepEqual(fp1, fp2) {
				t.Errorf("fingerprints diverge:\n run1: %+v\n run2: %+v", fp1, fp2)
			}
		})
	}
}
