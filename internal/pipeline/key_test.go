package pipeline

import (
	"reflect"
	"testing"

	"vase/internal/library"
	"vase/internal/lint"
	"vase/internal/mapper"
	"vase/internal/patterns"
)

// resultNeutral are the top-level mapper.Options fields that must NOT
// participate in the cache key: by the determinism and anytime contracts
// they cannot change a completed (optimal) result — they can only truncate
// the search (yielding Nonoptimal, which is never cached) or annotate it
// (Trace, which bypasses the cache).
var resultNeutral = map[string]bool{
	"Workers":  true,
	"MaxNodes": true,
	"Trace":    true,
}

// perturb returns a copy of v with the leaf at path changed to a different
// value.
func perturb(t *testing.T, v reflect.Value, path []int) reflect.Value {
	t.Helper()
	out := reflect.New(v.Type()).Elem()
	out.Set(v)
	f := out
	for _, i := range path {
		f = f.Field(i)
	}
	switch f.Kind() {
	case reflect.Bool:
		f.SetBool(!f.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		f.SetInt(f.Int() + 1)
	case reflect.Float32, reflect.Float64:
		f.SetFloat(f.Float() + 1.5)
	case reflect.String:
		f.SetString(f.String() + "?")
	default:
		t.Fatalf("perturb: unhandled kind %s at %v", f.Kind(), path)
	}
	return out
}

// leaves returns the field-index paths of every scalar leaf of a struct
// type, depth first.
func leaves(t *testing.T, typ reflect.Type, prefix []int) [][]int {
	t.Helper()
	var out [][]int
	for i := 0; i < typ.NumField(); i++ {
		path := append(append([]int{}, prefix...), i)
		ft := typ.Field(i).Type
		switch ft.Kind() {
		case reflect.Struct:
			out = append(out, leaves(t, ft, path)...)
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32,
			reflect.Int64, reflect.Float32, reflect.Float64, reflect.String:
			out = append(out, path)
		default:
			t.Fatalf("mapper.Options leaf %s.%s has kind %s: teach Canonical() and this test about it",
				typ.Name(), typ.Field(i).Name, ft.Kind())
		}
	}
	return out
}

// TestCacheKeySensitivity pins down the cache-key contract of the map
// stage: every result-relevant field of SynthesisOptions (recursively, down
// to process and pattern leaves) changes the key; the result-neutral fields
// do not; and the source text and library fingerprints participate. A new
// Options field failing here must either be encoded in Canonical() or be
// consciously exempted in resultNeutral — silent omission is what this test
// exists to prevent.
func TestCacheKeySensitivity(t *testing.T) {
	const vhifText = "module m\n"
	base := mapper.DefaultOptions()
	baseKey := MapKey(vhifText, base)

	if MapKey("module m2\n", base) == baseKey {
		t.Error("changing the VHIF input did not change the map key")
	}

	optType := reflect.TypeOf(base)
	baseVal := reflect.ValueOf(base)
	for _, path := range leaves(t, optType, nil) {
		top := optType.Field(path[0]).Name
		name := top
		if len(path) > 1 {
			name += ".…"
			ft := optType.Field(path[0]).Type
			for _, i := range path[1:] {
				name = top + "." + ft.Field(i).Name
				ft = ft.Field(i).Type
			}
		}
		mutated := perturb(t, baseVal, path).Interface().(mapper.Options)
		changed := MapKey(vhifText, mutated) != baseKey
		if resultNeutral[top] && changed {
			t.Errorf("result-neutral field %s changed the cache key", name)
		}
		if !resultNeutral[top] && !changed {
			t.Errorf("field %s does not participate in the cache key: a cached result could be served for different options", name)
		}
	}
}

func TestCompileKeySensitivity(t *testing.T) {
	k := CompileKey("a.vhd", "entity e is end entity;")
	if CompileKey("a.vhd", "entity e is end entity; -- v2") == k {
		t.Error("source text does not participate in the compile key")
	}
	if CompileKey("b.vhd", "entity e is end entity;") == k {
		t.Error("source name does not participate in the compile key")
	}
}

func TestLintKeySensitivity(t *testing.T) {
	src := LintSourceKey("a.vhd", "x", lint.Options{})
	if LintSourceKey("a.vhd", "x", lint.Options{Passes: []string{"unused"}}) == src {
		t.Error("pass selection does not participate in the lint key")
	}
	if LintVHIFKey("a.vhd", "x", lint.Options{}) == src {
		t.Error("source-level and VHIF-level lint share a key domain")
	}
}

// TestLibraryFingerprintInKey proves the fingerprints are real inputs of
// the key derivation: substituting a different fingerprint (as a changed
// cell library or pattern rule set would produce) yields a different key.
func TestLibraryFingerprintInKey(t *testing.T) {
	opts := mapper.DefaultOptions()
	const vhifText = "module m\n"
	want := keyOf(mapDomain, vhifText, opts.Canonical(), library.Fingerprint(), patterns.Fingerprint())
	if MapKey(vhifText, opts) != want {
		t.Fatal("MapKey is not derived from the library and pattern fingerprints")
	}
	if keyOf(mapDomain, vhifText, opts.Canonical(), "other-library", patterns.Fingerprint()) == want {
		t.Error("library fingerprint does not change the key")
	}
	if keyOf(mapDomain, vhifText, opts.Canonical(), library.Fingerprint(), "other-patterns") == want {
		t.Error("patterns fingerprint does not change the key")
	}
	if len(library.Fingerprint()) != 64 || len(patterns.Fingerprint()) != 64 || len(lint.Fingerprint()) != 64 {
		t.Error("fingerprints are not SHA-256 hex digests")
	}
}

// TestKeyOfLengthPrefixing guards the part-boundary property: moving a
// byte across a part boundary changes the key.
func TestKeyOfLengthPrefixing(t *testing.T) {
	if keyOf("ab", "c") == keyOf("a", "bc") {
		t.Error("keyOf collides across part boundaries")
	}
	if keyOf("a", "") == keyOf("a") {
		t.Error("keyOf ignores empty trailing parts")
	}
}

// goldenDefaultCanonical pins the canonical encoding of the default
// synthesis options. It changes only when the encoding (or a default)
// changes — both are cache-invalidating events that deserve a conscious
// golden update, since every on-disk artifact keyed under the old encoding
// becomes unreachable.
const goldenDefaultCanonical = "obj=0|proc{name=MOSIS SCN 2.0um|kpn=5e-05|kpp=1.7e-05|vtn=0.8|vtp=-0.9|ln=0.05|lp=0.06|lmin=2|wmin=3|vdd=5|cap=0.5|rsheet=1000|ovh=1.6}|sys{bw=0|peak=0|guard=0}|pat{noabs=false|notrans=false|fanin=0}|noseq=false|nobound=false|noshare=false|firstfit=false|strong=false|maxarea=0|maxpower=0|maxopamps=0"

func TestGoldenCanonicalOptions(t *testing.T) {
	if got := mapper.DefaultOptions().Canonical(); got != goldenDefaultCanonical {
		t.Errorf("canonical default options changed — this invalidates every cached map artifact; update the golden if intended:\n got %s\nwant %s", got, goldenDefaultCanonical)
	}
	bounded := mapper.DefaultOptions()
	bounded.Workers = 7
	bounded.MaxNodes = 99
	bounded.Trace = true
	if bounded.Canonical() != goldenDefaultCanonical {
		t.Error("result-neutral fields leaked into the canonical encoding")
	}
}
