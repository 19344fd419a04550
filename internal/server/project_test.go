package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"vase/internal/pipeline"
)

func TestProjectDiagnosticsEndpoint(t *testing.T) {
	s := newTestServer(t, Config{})
	body := map[string]any{
		"files": []map[string]any{
			{"name": "ent.vhd", "source": "entity amp is\n  port (quantity vin : in real;\n        quantity vout : out real);\nend entity amp;\n"},
			{"name": "arch.vhd", "source": "architecture behav of amp is\nbegin\n  vout == 2.0 * vin;\nend architecture behav;\n"},
		},
	}
	rec, out := post(t, s, "/v1/project/diagnostics", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body)
	}
	units, _ := out["units"].([]any)
	if len(units) != 1 {
		t.Fatalf("units = %v, want one cross-file unit", out["units"])
	}
	u := units[0].(map[string]any)
	if u["entity"] != "amp" || u["file"] != "arch.vhd" {
		t.Fatalf("unit = %v", u)
	}
	if out["partial"] != false {
		t.Fatalf("partial = %v, want false", out["partial"])
	}

	// Re-post with one edited file: the endpoint surfaces incremental
	// reuse — the untouched file's parse comes from the cache.
	body["files"].([]map[string]any)[1]["source"] = "architecture behav of amp is\nbegin\n  vout == 3.0 * vin;\nend architecture behav;\n"
	rec, out = post(t, s, "/v1/project/diagnostics", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("second status = %d, body %s", rec.Code, rec.Body)
	}
	if out["reused_parses"].(float64) != 1 {
		t.Fatalf("reused_parses = %v, want 1", out["reused_parses"])
	}
}

func TestProjectDiagnosticsBrokenFile(t *testing.T) {
	s := newTestServer(t, Config{})
	rec, out := post(t, s, "/v1/project/diagnostics", map[string]any{
		"files": []map[string]any{
			{"name": "broken.vhd", "source": "entity amp is\n  port (quantity vin : in real)\nend entity amp;\n"},
		},
	})
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d, want 422; body %s", rec.Code, rec.Body)
	}
	if out["partial"] != true {
		t.Fatalf("partial = %v, want true", out["partial"])
	}
	diags, _ := out["diagnostics"].([]any)
	if len(diags) == 0 {
		t.Fatalf("no structured diagnostics in %s", rec.Body)
	}
	if errs := out["errors"].(float64); errs == 0 {
		t.Fatalf("errors = %v, want > 0", out["errors"])
	}
}

func TestProjectDiagnosticsValidation(t *testing.T) {
	s := newTestServer(t, Config{})
	rec, _ := post(t, s, "/v1/project/diagnostics", map[string]any{"files": []map[string]any{}})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("empty files: status = %d, want 400", rec.Code)
	}
	rec, _ = post(t, s, "/v1/project/diagnostics", map[string]any{
		"files": []map[string]any{
			{"name": "a.vhd", "source": ""},
			{"name": "a.vhd", "source": ""},
		},
	})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("duplicate names: status = %d, want 400", rec.Code)
	}
}

// TestParsePartialASTSummary: a syntax error on /v1/parse yields the full
// diagnostics list plus a summary of what the recovering parser salvaged.
func TestParsePartialASTSummary(t *testing.T) {
	s := newTestServer(t, Config{})
	broken := strings.Replace(mixerSrc, "3.0 * a + 2.0 * b;", "3.0 * a + ;", 1)
	rec, out := post(t, s, "/v1/parse", map[string]any{"name": "mixer.vhd", "source": broken})
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d, want 422; body %s", rec.Code, rec.Body)
	}
	if _, ok := out["diagnostics"]; !ok {
		t.Fatalf("error response lacks diagnostics: %s", rec.Body)
	}
	sum, ok := out["partial_ast"].(map[string]any)
	if !ok {
		t.Fatalf("error response lacks partial_ast: %s", rec.Body)
	}
	if sum["entities"].(float64) != 1 || sum["architectures"].(float64) != 1 {
		t.Fatalf("partial_ast = %v, want the entity and architecture to survive", sum)
	}
	if sum["partial"] != true || sum["error_nodes"].(float64) == 0 {
		t.Fatalf("partial_ast = %v, want partial with error nodes", sum)
	}
}

// TestParseFailureParsesOnce: a broken source on /v1/parse is parsed once.
// The strict parse behind compilation and the partial-AST summary are two
// views of one memoized recovering parse, so the summary is a cache hit and
// the parse stage shows exactly one computation, not a failed strict parse
// plus a recovering one.
func TestParseFailureParsesOnce(t *testing.T) {
	p, err := pipeline.New(pipeline.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{Pipeline: p})
	broken := strings.Replace(mixerSrc, "3.0 * a + 2.0 * b;", "3.0 * a + ;", 1)
	rec, _ := post(t, s, "/v1/parse", map[string]any{"name": "mixer.vhd", "source": broken})
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d, want 422; body %s", rec.Code, rec.Body)
	}
	if st := p.Stats().Stage(pipeline.StageParse); st.Misses+st.Errors != 1 {
		t.Errorf("parse stage = %d misses + %d errors, want one parse in all", st.Misses, st.Errors)
	}
	var body map[string]json.RawMessage
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	var sum bytes.Buffer
	if err := json.Compact(&sum, body["partial_ast"]); err != nil {
		t.Fatalf("partial_ast %q: %v", body["partial_ast"], err)
	}
	const want = `{"units":2,"entities":1,"architectures":1,"error_nodes":1,"partial":true}`
	if sum.String() != want {
		t.Errorf("partial_ast = %s, want %s", sum.String(), want)
	}
}

// TestLintPartialASTSummary: same contract on /v1/lint for source input.
func TestLintPartialASTSummary(t *testing.T) {
	s := newTestServer(t, Config{})
	broken := strings.Replace(mixerSrc, "3.0 * a + 2.0 * b;", "3.0 * a + ;", 1)
	rec, out := post(t, s, "/v1/lint", map[string]any{"name": "mixer.vhd", "source": broken})
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d, want 422; body %s", rec.Code, rec.Body)
	}
	if _, ok := out["partial_ast"]; !ok {
		t.Fatalf("error response lacks partial_ast: %s", rec.Body)
	}
}
