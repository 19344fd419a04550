package corpus

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"sort"
	"testing"

	"vase/internal/mapper"
	"vase/internal/netlist"
	"vase/internal/pipeline"
	"vase/internal/sim"
	"vase/internal/vhif"
)

// digestDesigns are the designs beyond the corpus whose traces the digest
// pins: a band-pass and a low-pass inferred filter, and a gain-5 amplifier
// whose finite-bandwidth run completes.
var digestDesigns = []struct {
	key, src string
	inputs   map[string]sim.Source
	opts     sim.Options
}{
	{"tone", `
entity tone is
  port (
    quantity vin  : in real is voltage;
    quantity vout : out real is voltage is frequency 500.0 to 2000.0
  );
end entity;
architecture a of tone is
begin
  vout == vin;
end architecture;`, map[string]sim.Source{"vin": sim.Sine(1, 1e3, 0)}, sim.Options{TStop: 4e-3, TStep: 2e-7}},
	{"smooth", `
entity smooth is
  port (
    quantity vin  : in real is voltage;
    quantity vout : out real is voltage is frequency 0 to 1000.0
  );
end entity;
architecture a of smooth is
begin
  vout == 2.0 * vin;
end architecture;`, map[string]sim.Source{"vin": sim.Sine(0.3, 3e3, 0)}, sim.Options{TStop: 4e-3, TStep: 1e-6}},
	{"amp", `
entity amp is
  port (quantity a : in real; quantity y : out real);
end entity;
architecture arch of amp is
begin
  y == 5.0 * a;
end architecture;`, map[string]sim.Source{"a": sim.Sine(0.1, 10e3, 0)}, sim.Options{TStop: 1e-3, TStep: 1e-7}},
}

// traceDigests pins every behavioral trace bit for bit: the hex SHA-256
// of each run's time axis, every signal in name order, Truncated, the
// error text and, for the plain variant, every value the OnSample probe
// returns for every net name. The keys are design/level/variant.
var traceDigests = map[string]string{
	"amp/netlist/bandwidth":        "37f9cff60002a3d90997de48c660c440c06d4a9065f0fb51793ca6bf5d0e170b",
	"amp/netlist/maxsteps7":        "e5682e71c23be8c9175c9964db2c646cb3d5b652fc7d01cd11e8cbb378a6285f",
	"amp/netlist/plain":            "64f05ced5fc92e7214b4c869ed286e8b3ea7f318702c25c67f7254c49c60536c",
	"amp/netlist/probes":           "37a08bdcb11ad1c8f4c6282db15ae75c1eedf9af012333db766dcbaeb7ee1e0a",
	"amp/vhif/maxsteps7":           "e5682e71c23be8c9175c9964db2c646cb3d5b652fc7d01cd11e8cbb378a6285f",
	"amp/vhif/plain":               "64f05ced5fc92e7214b4c869ed286e8b3ea7f318702c25c67f7254c49c60536c",
	"amp/vhif/probes":              "37a08bdcb11ad1c8f4c6282db15ae75c1eedf9af012333db766dcbaeb7ee1e0a",
	"envelope/netlist/bandwidth":   "6c730109f23c253dd57312713b7a59550813cf239f6fa6c083ae343d02b892d2",
	"envelope/netlist/maxsteps7":   "17ca02feb8abddf85c1a2edd13038443669e4b098639f89e0b8c9cb191979583",
	"envelope/netlist/plain":       "c33636a16c00036d3dd59b4f62f31b10492b65febc4b01653806bcbf174d28d9",
	"envelope/netlist/probes":      "4e7519c8aea873bfbdd4e8aaacf0ac2d47a886292539e1e458e72ece6c27bdaf",
	"envelope/vhif/maxsteps7":      "17ca02feb8abddf85c1a2edd13038443669e4b098639f89e0b8c9cb191979583",
	"envelope/vhif/plain":          "fc532552ec524cf122c0fcc9ca38b3936161ba84b54ae7b9708495a3c80abd56",
	"envelope/vhif/probes":         "4e31f3ca7dc621750474b2fc607785f8494d799d91675f1d223a58eea8d71271",
	"funcgen/netlist/bandwidth":    "99d3448daf0e4cf1e10b6e8d7bf9755db23e353cda1b884e3cb65e6bfd59bdc6",
	"funcgen/netlist/maxsteps7":    "c2e8102ab76384faa0131bda1d10ce428d3943c13b276cf89dfcb109b84a84de",
	"funcgen/netlist/plain":        "18dbc5a485ce6da83589cf727cb0889f36cccc808769e7712eb6337a7ba519eb",
	"funcgen/netlist/probes":       "95786d9945666739441d60acd10490454a02835324bd5695b505e3da770d4e16",
	"funcgen/vhif/maxsteps7":       "c2e8102ab76384faa0131bda1d10ce428d3943c13b276cf89dfcb109b84a84de",
	"funcgen/vhif/plain":           "afdd3673085b251e47b54e99a24f0a4ab223f4618b5ad711d4a2692e76473f98",
	"funcgen/vhif/probes":          "3247a7f3ff0993c7475f59b71567c0527f5729058aa3f489069491f5e017674b",
	"itersolver/netlist/bandwidth": "1f1e9f591815dbe8db7865b5ed1d47c2a33e6cc7d5338a9d77291d450281e980",
	"itersolver/netlist/maxsteps7": "74be100c5603ae0f3c9f8909774d6e0797187615d4946748b8c70b64499feae2",
	"itersolver/netlist/plain":     "c7db337fd0b753f9f266ee1463758df80230a95b7427a4d32fabe27d2fb9c06d",
	"itersolver/netlist/probes":    "a71a8c9b521bbe0e85c61f8dbe079b2cb46027e19d6f6dc5ca6db40e48e09bd4",
	"itersolver/vhif/maxsteps7":    "74be100c5603ae0f3c9f8909774d6e0797187615d4946748b8c70b64499feae2",
	"itersolver/vhif/plain":        "4b7e1f2df29c4c9f3a4c2181734e4423c5684a68132ded57793b8c4dfe9ab662",
	"itersolver/vhif/probes":       "4c43d8addc91a1f68652c71b499191b8cfd1e462f9d083690e4a73141b31d1e2",
	"missile/netlist/bandwidth":    "c24eba43360a25c4cee56a0808c6bfe3b70d03a34fe2df339fe9e138cd3cc3bf",
	"missile/netlist/maxsteps7":    "a7992427542b45b5fb40a62b17a405fd28cd72976fbf3b9d88b1c10e4dc5cb43",
	"missile/netlist/plain":        "84b6d0992b31b765ca61ef3dbbcfdf5fbd1f3d86768a364bc04952b57658ab79",
	"missile/netlist/probes":       "f58a0fed469e2bca96db6506d674bd3a52bd407cc3c47ff9ec2cb388d99fd186",
	"missile/vhif/maxsteps7":       "a7992427542b45b5fb40a62b17a405fd28cd72976fbf3b9d88b1c10e4dc5cb43",
	"missile/vhif/plain":           "ee6fc03a677b24f33ca93b96cf121580cd541b9cbc99415dcd699254ebea0a4b",
	"missile/vhif/probes":          "39e4097bfa232b29152a85a64357f3ec0bff10d08445955afb06ed6b8ff30e41",
	"pid/netlist/bandwidth":        "e1ae3b9f330269628462bd053fd07ddc57067343f31c9c7ddb78a5eae16b0e45",
	"pid/netlist/maxsteps7":        "bab13c66ecc8bad3add6970fe0f58d03c553f74fa00474339ef6506070b9cc29",
	"pid/netlist/plain":            "f48dd327944ebe194960374fa7deecb9d9890272928f01912358c497c040e1e1",
	"pid/netlist/probes":           "c7888c9b483a1c4b66f40e9f2435bf8040e0462782fba974168ff6384f9455cc",
	"pid/vhif/maxsteps7":           "bab13c66ecc8bad3add6970fe0f58d03c553f74fa00474339ef6506070b9cc29",
	"pid/vhif/plain":               "017684c5bdb9f5e12e15f4add7627179dbe2b1f14bc85b71f806c0907611abea",
	"pid/vhif/probes":              "7c8ca1c760ff477b8f874ffd73e5c38207411846b40e4166ca42cd6a78e75c3e",
	"powermeter/netlist/bandwidth": "4613efe4f1dc46d327d3f36776dd78e6880c252afb1921d1725d61dd3638499e",
	"powermeter/netlist/maxsteps7": "a16edbfb466c935625d13f90f5ee2b60ffc56779acc5324131b4cc007bce230e",
	"powermeter/netlist/plain":     "41d46dea8a33cd2dc4d531de506a565a4571f5849ab7ceb75351713c1ba9c253",
	"powermeter/netlist/probes":    "5e76ad23028fa297d0c39c4a31b25924dcebb8964015e4dc065682b072d66744",
	"powermeter/vhif/maxsteps7":    "a16edbfb466c935625d13f90f5ee2b60ffc56779acc5324131b4cc007bce230e",
	"powermeter/vhif/plain":        "41d46dea8a33cd2dc4d531de506a565a4571f5849ab7ceb75351713c1ba9c253",
	"powermeter/vhif/probes":       "5e76ad23028fa297d0c39c4a31b25924dcebb8964015e4dc065682b072d66744",
	"ratiometer/netlist/bandwidth": "7de2c78efee548c6b015ec457201985a70994073235717d69b5deec70c74de26",
	"ratiometer/netlist/maxsteps7": "5f053bca330d2535b7b89579e7fcd15b1b65834cc5a6f568581ff7fef82c9b70",
	"ratiometer/netlist/plain":     "bece5397c1d982dadf02256a9fb6b53240b393a423e62cbcf0bd8736636e43c6",
	"ratiometer/netlist/probes":    "a9337e56f14e677d957be73dc5c91ed75fedae5e40cbd6b5fc9d89ca5267599d",
	"ratiometer/vhif/maxsteps7":    "5f053bca330d2535b7b89579e7fcd15b1b65834cc5a6f568581ff7fef82c9b70",
	"ratiometer/vhif/plain":        "bece5397c1d982dadf02256a9fb6b53240b393a423e62cbcf0bd8736636e43c6",
	"ratiometer/vhif/probes":       "a9337e56f14e677d957be73dc5c91ed75fedae5e40cbd6b5fc9d89ca5267599d",
	"receiver/netlist/bandwidth":   "5b2efddc0ea8af9522d81a97fc6ee91d65d0f4c18700c81e785d700218c7d9dd",
	"receiver/netlist/maxsteps7":   "d8029ebb4ad2ad4e7f06cd143b08dcae43c2112964a27b5dc29c516b7a2ae66c",
	"receiver/netlist/plain":       "1e2d385ba961e93c563b9e560c290bcd0206a36be7a28b8804c01f66d36840c6",
	"receiver/netlist/probes":      "19e0daa44b7b4516bb81ff8cabe079e0fc46460a2c45e7075610a1930229124e",
	"receiver/vhif/maxsteps7":      "d8029ebb4ad2ad4e7f06cd143b08dcae43c2112964a27b5dc29c516b7a2ae66c",
	"receiver/vhif/plain":          "b334f01b2b8e4f69e5b9005b76728b98e62eb33d06a0f1209e81d6fc8131b9b0",
	"receiver/vhif/probes":         "dfc55912b8f506b434a40031a50aeca4e8f46b2594e5051cbc62a1cc73e29094",
	"smooth/netlist/bandwidth":     "858f44745c0ea1c7d0c93fe4d12bd2889f3a094422d1b32053bf849f80b852c8",
	"smooth/netlist/maxsteps7":     "17b6da07549fa3b6ad5b6b2eadfd1502d81f0c650d8a9fb093d65445594d3cae",
	"smooth/netlist/plain":         "dca56ce98504449e19441111fd5d0e32bf97c377b42a16f8dfd16a3b5aafa391",
	"smooth/netlist/probes":        "f22317c901627a9d7280c4ff44a4d9403cac25039e2a81d504fb73ace30427ac",
	"smooth/vhif/maxsteps7":        "17b6da07549fa3b6ad5b6b2eadfd1502d81f0c650d8a9fb093d65445594d3cae",
	"smooth/vhif/plain":            "dca56ce98504449e19441111fd5d0e32bf97c377b42a16f8dfd16a3b5aafa391",
	"smooth/vhif/probes":           "f22317c901627a9d7280c4ff44a4d9403cac25039e2a81d504fb73ace30427ac",
	"sqrt/netlist/bandwidth":       "6e686cc3131b0c256a4968a62f98be24e32359fefd6799f8404878d9660e5c77",
	"sqrt/netlist/maxsteps7":       "39956355496e43a95c21a8c2a5daf099bdb087e1fc336a3d01a72782ae2d6c89",
	"sqrt/netlist/plain":           "73a055c585d83efc5c32cf3cc3de586a392f4c5baed99e613f34ef23db0c0906",
	"sqrt/netlist/probes":          "9eef3bbe444351ecf3c606d924927e710b013fa57747384befb4f944e71d134a",
	"sqrt/vhif/maxsteps7":          "39956355496e43a95c21a8c2a5daf099bdb087e1fc336a3d01a72782ae2d6c89",
	"sqrt/vhif/plain":              "73a055c585d83efc5c32cf3cc3de586a392f4c5baed99e613f34ef23db0c0906",
	"sqrt/vhif/probes":             "9eef3bbe444351ecf3c606d924927e710b013fa57747384befb4f944e71d134a",
	"svf/netlist/bandwidth":        "62591649eb247f7b4c09325f322e0f36fa0fcbdef6e080cac54cf044e6113389",
	"svf/netlist/maxsteps7":        "6f71bbc3d003caf7b526985f5f24a33864467299c7e94ebfefe4237dac4ff190",
	"svf/netlist/plain":            "e26111b97d5f7970bee6f1c0ba0c1a84db7cbd4458e76d64d56a61337138e1cc",
	"svf/netlist/probes":           "c028c0e5e74f2f798067b638ebc68c57c2fb660e10dc24638a659dbcbdf6c0fc",
	"svf/vhif/maxsteps7":           "6f71bbc3d003caf7b526985f5f24a33864467299c7e94ebfefe4237dac4ff190",
	"svf/vhif/plain":               "e293f02d8cd1b3d5956149c5f38e088132024f924671f1c6692d29f689b6b2af",
	"svf/vhif/probes":              "2c098b6e5de8f065b04061bab70f4ef9f6c94b5c5d646d6e52512a17813a253b",
	"tone/netlist/bandwidth":       "dbf0585fd3bcfc6000cae786a250fa0562491dbbd7c0e169a1b5c0e91eba1c88",
	"tone/netlist/maxsteps7":       "9282ef8e2ef26e512088b066cf9ef6b6ed84efda66d147a9b4b195c18b7ab2aa",
	"tone/netlist/plain":           "05e0daa62e41b4d80f6525a9b64f9d708e3040bc62f9702b665ee696b41000e2",
	"tone/netlist/probes":          "c110a51db167f5833707084f131257f2b857c55c6443fcf1c05e67686694dcc1",
	"tone/vhif/maxsteps7":          "9282ef8e2ef26e512088b066cf9ef6b6ed84efda66d147a9b4b195c18b7ab2aa",
	"tone/vhif/plain":              "6e8c879b7e4b65f2b7ee27d0a6d7fd39d41b2431536e1db6b0a273cc0ec8807b",
	"tone/vhif/probes":             "cb614e3b8ecee7f02f29355c7a0301dad7dbd1dfbdbe6d788a3be156c6e6d84b",
	"window/netlist/bandwidth":     "64ebea0e02358dd34c7aa295bca11908071e718e2e7cd9b73da1631c35d91413",
	"window/netlist/maxsteps7":     "d292d685e3efe4ec302b2f1900effc7f56928312b4eda7eac8b7f505ea18abac",
	"window/netlist/plain":         "2fd0d9d30013b0c5994db4ab67452d8675d57d7b91a240dc4928c7717f53f162",
	"window/netlist/probes":        "efaf1039897aefb1adb721a215c7e56b4571ec62f5c60bb35b49856ee060a32d",
	"window/vhif/maxsteps7":        "d292d685e3efe4ec302b2f1900effc7f56928312b4eda7eac8b7f505ea18abac",
	"window/vhif/plain":            "2fd0d9d30013b0c5994db4ab67452d8675d57d7b91a240dc4928c7717f53f162",
	"window/vhif/probes":           "efaf1039897aefb1adb721a215c7e56b4571ec62f5c60bb35b49856ee060a32d",
}

// TestBehavioralTraceDigests runs the five Table 1 applications, the extra
// designs and the filter and amplifier designs above at both behavioral
// levels and compares each run's digest to the recorded one. Variants:
// the plain window with OnSample reading every net name, a MaxSteps
// budget of 7, every named net probed and, at the netlist level,
// ModelBandwidth (it diverges on three of the applications, so the
// digest pins the error text there).
func TestBehavioralTraceDigests(t *testing.T) {
	type design struct {
		key    string
		m      *vhif.Module
		nl     *netlist.Netlist
		inputs map[string]sim.Source
		opts   sim.Options
	}
	var designs []design
	for _, app := range Applications() {
		b, err := buildDefault(app)
		if err != nil {
			t.Fatalf("%s: %v", app.Key, err)
		}
		designs = append(designs, design{app.Key, b.Module, b.Result.Netlist, appInputs(app.Key), appSimOptions(app.Key)})
	}
	for _, app := range Extras() {
		m, res := buildExtra(t, app.Key)
		designs = append(designs, design{app.Key, m, res.Netlist, extraInputs[app.Key], sim.Options{TStop: 4e-3, TStep: 1e-6}})
	}
	for _, d := range digestDesigns {
		cr, err := pipeline.Default().Compile(context.Background(), d.key+".vhd", d.src)
		if err != nil {
			t.Fatalf("%s: %v", d.key, err)
		}
		res, err := mapper.Synthesize(cr.Module, mapper.DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", d.key, err)
		}
		designs = append(designs, design{d.key, cr.Module, res.Netlist, d.inputs, d.opts})
	}

	got := map[string]string{}
	for _, d := range designs {
		moduleNames, netlistNames := moduleNetNames(d.m), netlistNetNames(d.nl)
		levels := []struct {
			level string
			names []string
			run   func(sim.Options) (*sim.Trace, error)
		}{
			{"vhif", moduleNames, func(o sim.Options) (*sim.Trace, error) { return sim.SimulateModule(d.m, d.inputs, o) }},
			{"netlist", netlistNames, func(o sim.Options) (*sim.Trace, error) { return sim.SimulateNetlist(d.nl, d.inputs, o) }},
		}
		for _, l := range levels {
			sampled := append(append([]string{}, l.names...), "no_such_net")
			variants := map[string]sim.Options{"plain": d.opts}
			steps := d.opts
			steps.MaxSteps = 7
			variants["maxsteps7"] = steps
			probes := d.opts
			probes.Probes = l.names
			variants["probes"] = probes
			if l.level == "netlist" {
				bw := d.opts
				bw.ModelBandwidth = true
				variants["bandwidth"] = bw
			}
			for variant, o := range variants {
				h := sha256.New()
				if variant == "plain" {
					o.OnSample = func(t float64, probe func(string) (float64, bool)) {
						putFloat(h, t)
						for _, name := range sampled {
							v, ok := probe(name)
							putFloat(h, v)
							if ok {
								h.Write([]byte{1})
							} else {
								h.Write([]byte{0})
							}
						}
					}
				}
				tr, err := l.run(o)
				got[d.key+"/"+l.level+"/"+variant] = traceDigest(h, tr, err)
			}
		}
	}

	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if want, ok := traceDigests[k]; !ok || got[k] != want {
			t.Errorf("%s: digest %s, want %s", k, got[k], want)
		}
	}
	if len(got) != len(traceDigests) {
		t.Errorf("ran %d traces, %d digests recorded", len(got), len(traceDigests))
	}
}

// traceDigest folds a run's result into h: the error text, or the time
// axis, every signal in name order and Truncated.
func traceDigest(h hash.Hash, tr *sim.Trace, err error) string {
	if err != nil {
		h.Write([]byte("error: " + err.Error()))
		return hex.EncodeToString(h.Sum(nil))
	}
	for _, t := range tr.Time {
		putFloat(h, t)
	}
	names := make([]string, 0, len(tr.Signals))
	for name := range tr.Signals {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		h.Write([]byte(name))
		putFloat(h, float64(len(tr.Signals[name])))
		for _, v := range tr.Signals[name] {
			putFloat(h, v)
		}
	}
	if tr.Truncated {
		h.Write([]byte("truncated"))
	}
	return hex.EncodeToString(h.Sum(nil))
}

func putFloat(h hash.Hash, v float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	h.Write(b[:])
}

// moduleNetNames lists the distinct nonempty net names of a module,
// sorted: graph nets, output ports and control signals.
func moduleNetNames(m *vhif.Module) []string {
	set := map[string]bool{}
	for _, g := range m.Graphs {
		for _, n := range g.Nets {
			set[n.Name] = true
		}
		for _, b := range g.Blocks {
			if b.Kind == vhif.BOutput {
				set[b.Name] = true
			}
		}
	}
	for _, c := range m.Controls {
		set[c.Signal] = true
	}
	return sortedNames(set)
}

// netlistNetNames lists the distinct nonempty net and port names of a
// netlist, sorted.
func netlistNetNames(nl *netlist.Netlist) []string {
	set := map[string]bool{}
	for _, n := range nl.Nets {
		set[n.Name] = true
	}
	for _, p := range nl.Ports {
		set[p.Name] = true
	}
	return sortedNames(set)
}

func sortedNames(set map[string]bool) []string {
	names := make([]string, 0, len(set))
	for name := range set {
		if name != "" {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}
