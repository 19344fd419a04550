package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"hash"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"sort"
	"testing"
)

// replyDigests pins what vased writes, keyed by case name. A byte case is
// the hex SHA-256 of the status, the Content-Type and the body bytes, with
// the search's elapsed_us masked; a value case hashes the status, the
// Content-Type and the decoded trace: the time axis, every signal in name
// order (float bits) and truncated. See TestReplyDigests.
var replyDigests = map[string]string{
	"error/get":                     "cfc842cb265056d8721fb2f5496184cb27fd4febb690e7c030853a159a04adb6",
	"error/malformed":               "ff612f7c840965a235c1a08a95b07f5c037d5a1816a0cafad086520e08d31a55",
	"error/solver_without_circuit":  "9bf854d434cf29686b8edff633dc7ae07378434fff14b66b3ad8614d34aeb1c2",
	"error/unknown_field":           "ef5240c8c4be865faa431687a0eaafa3292bba724765cbd43957d05b432041e6",
	"error/unknown_level":           "b271a19acad5bfae4529dc479d460ec258fd4bc933ab5c5a33462c904236e413",
	"lint/clean":                    "7b304393c09236450752f6944f2bf5554475ffa4b1a49457a8c327c831fbb9da",
	"lint/findings":                 "74401f444c2df46f014eab522666fa70866cc9b70461ee00e8e12bc145a6a02f",
	"lint/werror":                   "945e6000bb82905eee83ae18467725a4fd7b1cf0fd7a349e3261110aeafae38d",
	"parse/broken":                  "63724792be0711e531dfb9132cdbddccd2e6341ac07c749468e07e0dbfe2584e",
	"parse/clean":                   "0da8a929248994128796916a384a00213350d96a89094b5c334894eb42d6a353",
	"project/diagnostics":           "092f589a097595678828b674e3f72662419cfcf94fe64be33aa6f79b9ccfe764",
	"simulate/behavioral/every1":    "0359904e9aace4b36c1ebf56d3fca30615ff524e40c75b9f9d62e19afc72f546",
	"simulate/behavioral/every10":   "7f209f1a4e03b8967c17ab1469cadb618e1bbf9675d7880458a4ae40ff43ebcf",
	"simulate/behavioral/max_steps": "08c5bc771af6446aa6d41e894bd57101f397fb413519e86348e96a8cee80c5d4",
	"simulate/circuit/every1":       "7c12abdadd919482f931943080c9129e60a6464210ea2a9c7a2fb76095957f4c",
	"simulate/circuit/every10":      "693a576db0f8112d8f6e956de766619fee2926013ed2c688bff58aa086867e18",
	"stream/mixer":                  "59fac2b03dad06b45f200469482e630800031deb920449120ca1134ee0258e80",
	"synthesize/max_nodes":          "b7ea12b7e0c1c5966d988070487c74387ed5e371408d21017131d6b82bc93022",
	"synthesize/ok":                 "47aa56a9481d7a827c4b93edf46660a80cca98528d31f3b1660a846565637de2",
}

// lintWarnSrc draws a dimension and an unused-signal warning and no error.
const lintWarnSrc = `entity e is
  port (quantity v1 : in real is voltage;
        quantity i1 : in real is current;
        quantity vo : out real is voltage);
end entity;
architecture a of e is
  signal dead : bit;
begin
  vo == v1 + i1;
end architecture;
`

// elapsedUS matches the one wall-clock field of a reply.
var elapsedUS = regexp.MustCompile(`"elapsed_us": [0-9]+`)

// TestReplyDigests pins every reply shape vased writes. The byte cases
// hash the raw body, so any change to its encoding fails them; the
// simulate cases hash what a client decodes, so they hold across an
// encoding change that keeps every value. Each case runs on a fresh
// server, so cache state never leaks between cases.
func TestReplyDigests(t *testing.T) {
	js := func(v any) []byte {
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	mixer := func(extra map[string]any) []byte {
		req := map[string]any{"name": "mixer.vhd", "source": mixerSrc}
		for k, v := range extra {
			req[k] = v
		}
		return js(req)
	}
	behavioral := func(extra map[string]any) []byte {
		req := map[string]any{
			"inputs": map[string]string{"a": "sine:1.5,1000", "b": "dc:0.5"},
			"tstop":  1e-4,
			"tstep":  1e-6,
		}
		for k, v := range extra {
			req[k] = v
		}
		return mixer(req)
	}
	circuit := func(extra map[string]any) []byte {
		req := map[string]any{
			"inputs": map[string]string{"a": "sine:0.1,1000", "b": "dc:0.2"},
			"tstop":  1e-4,
			"tstep":  1e-6,
			"level":  "circuit",
		}
		for k, v := range extra {
			req[k] = v
		}
		return mixer(req)
	}
	type reqCase struct {
		name, method, path string
		body               []byte
	}
	byteCases := []reqCase{
		{"parse/clean", http.MethodPost, "/v1/parse", mixer(nil)},
		{"parse/broken", http.MethodPost, "/v1/parse", js(map[string]any{
			"name": "broken.vhd", "source": "entity amp is\n  port (quantity vin : in real)\nend entity amp;\n"})},
		{"lint/clean", http.MethodPost, "/v1/lint", mixer(nil)},
		{"lint/findings", http.MethodPost, "/v1/lint", js(map[string]any{"name": "sel.vhd", "source": lintWarnSrc})},
		{"lint/werror", http.MethodPost, "/v1/lint", js(map[string]any{"name": "sel.vhd", "source": lintWarnSrc, "werror": true})},
		{"synthesize/ok", http.MethodPost, "/v1/synthesize", mixer(nil)},
		{"synthesize/max_nodes", http.MethodPost, "/v1/synthesize", mixer(map[string]any{"max_nodes": 1})},
		{"project/diagnostics", http.MethodPost, "/v1/project/diagnostics", js(map[string]any{
			"files": []map[string]any{
				{"name": "ent.vhd", "source": "entity amp is\n  port (quantity vin : in real;\n        quantity vout : out real);\nend entity amp;\n"},
				{"name": "arch.vhd", "source": "architecture behav of amp is\nbegin\n  vout == 2.0 * vin;\nend architecture behav;\n"},
			}})},
		{"error/malformed", http.MethodPost, "/v1/parse", []byte(`{"source": `)},
		{"error/unknown_field", http.MethodPost, "/v1/parse", mixer(map[string]any{"bogus": 1})},
		{"error/get", http.MethodGet, "/v1/parse", nil},
		{"error/unknown_level", http.MethodPost, "/v1/simulate", behavioral(map[string]any{"level": "orbital"})},
		{"error/solver_without_circuit", http.MethodPost, "/v1/simulate", behavioral(map[string]any{"solver": "fast"})},
		{"stream/mixer", http.MethodPost, "/v1/simulate", mixer(map[string]any{
			"inputs": map[string]string{"a": "dc:1", "b": "dc:2"},
			"tstop":  1e-5, "tstep": 1e-6, "stream": true, "every": 2})},
	}
	valueCases := []reqCase{
		{"simulate/behavioral/every1", http.MethodPost, "/v1/simulate", behavioral(nil)},
		{"simulate/behavioral/every10", http.MethodPost, "/v1/simulate", behavioral(map[string]any{"every": 10})},
		{"simulate/behavioral/max_steps", http.MethodPost, "/v1/simulate", behavioral(map[string]any{"max_steps": 5})},
		{"simulate/circuit/every1", http.MethodPost, "/v1/simulate", circuit(nil)},
		{"simulate/circuit/every10", http.MethodPost, "/v1/simulate", circuit(map[string]any{"every": 10})},
	}
	serve := func(c reqCase) (*httptest.ResponseRecorder, hash.Hash) {
		rec := httptest.NewRecorder()
		newTestServer(t, Config{}).ServeHTTP(rec, httptest.NewRequest(c.method, c.path, bytes.NewReader(c.body)))
		h := sha256.New()
		putUint(h, uint64(rec.Code))
		h.Write([]byte(rec.Header().Get("Content-Type") + "\n"))
		return rec, h
	}

	got := map[string]string{}
	for _, c := range byteCases {
		rec, h := serve(c)
		h.Write(elapsedUS.ReplaceAll(rec.Body.Bytes(), []byte(`"elapsed_us": 0`)))
		got[c.name] = hex.EncodeToString(h.Sum(nil))
	}
	for _, c := range valueCases {
		rec, h := serve(c)
		var body struct {
			Time      []float64            `json:"time"`
			Signals   map[string][]float64 `json:"signals"`
			Truncated bool                 `json:"truncated"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatalf("%s: status %d, body %.200q: %v", c.name, rec.Code, rec.Body, err)
		}
		putUint(h, uint64(len(body.Time)))
		for _, v := range body.Time {
			putUint(h, math.Float64bits(v))
		}
		names := make([]string, 0, len(body.Signals))
		for name := range body.Signals {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			h.Write([]byte(name + "\n"))
			putUint(h, uint64(len(body.Signals[name])))
			for _, v := range body.Signals[name] {
				putUint(h, math.Float64bits(v))
			}
		}
		if body.Truncated {
			h.Write([]byte("truncated"))
		}
		got[c.name] = hex.EncodeToString(h.Sum(nil))
	}

	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if want, ok := replyDigests[name]; !ok || got[name] != want {
			t.Errorf("%s: digest %s, want %s", name, got[name], want)
		}
	}
	if len(got) != len(replyDigests) {
		t.Errorf("ran %d cases, %d digests recorded", len(got), len(replyDigests))
	}
}

func putUint(h hash.Hash, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	h.Write(b[:])
}
