package corpus

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden VHIF files")

// TestGoldenVHIF pins the exact VHIF each benchmark compiles to: any change
// to a translation rule that alters a corpus representation must be
// reviewed (and the goldens regenerated with -update).
func TestGoldenVHIF(t *testing.T) {
	for _, app := range Applications() {
		app := app
		t.Run(app.Key, func(t *testing.T) {
			b, err := buildDefault(app)
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			got := b.Module.Dump()
			path := filepath.Join("testdata", app.Key+".vhif")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("VHIF changed from the golden:\n--- got ---\n%s\n--- want ---\n%s", got, want)
			}
		})
	}
}

// TestGoldenNetlists pins the synthesized architectures the same way.
func TestGoldenNetlists(t *testing.T) {
	for _, app := range Applications() {
		app := app
		t.Run(app.Key, func(t *testing.T) {
			b, err := buildDefault(app)
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			got := b.Result.Netlist.Dump()
			path := filepath.Join("testdata", app.Key+".netlist")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("netlist changed from the golden:\n--- got ---\n%s\n--- want ---\n%s", got, want)
			}
		})
	}
}
