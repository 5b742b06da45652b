package conformance

import (
	"crypto/sha256"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/obs"
)

// obsGolden pins every observable byte of two programs — examples/sumsq.pf
// and the corpus's crosscluster.pf — at seeds 1-3, as sha256 sums captured at
// the commit before the three announcement streams were folded behind one
// emit (PR 16's parent, 8cc4440): the Section 12 line sequence with every
// kind on (Run), the flight-recorder dump (RunRecorded), the Chrome trace and
// metric snapshot (RunInstrumented), and the same four from a RunFault mesh
// with every sink on, the only schedule that takes the wire path
// (routeRemote, DeliverWire, initiate replies).  The 24 wire-* sums were
// re-captured when a fault run became one VM per cluster, and again when it
// became one real node per cluster, joined by the in-memory fault network.
// The six wire-snapshot sums were re-captured again when a node began
// answering a drain round once idle (protocol version 11): a drain ack lost
// its idle byte, one byte per ack off node.tx.n1->n0.bytes,
// node.rx.n1->n0.bytes and node.batch.bytes.  They were re-captured once
// more when only an answer to drain round 2 or later began carrying the
// follower's snapshot and spans: round 1's ack lost both blobs, which takes
// bytes off node.tx.n1->n0.bytes and node.rx.n1->n0.bytes (crosscluster
// seeds 1-3: 5,202, 5,175, 5,139; sumsq: 6,148, 6,076, 6,184).  The six
// snapshot and six wire-snapshot sums were re-captured when the core's
// activity became registry counters: each snapshot gained the rows
// core.msg.accept 8, core.msg.send 8, core.task.complete and .initiate (3
// for crosscluster, 5 for sumsq), core.window.bytes 0 and core.window.op 0,
// and on the wire the follower's snapshot blob carries those rows, 310 more
// bytes on node.tx.n1->n0.bytes, node.rx.n1->n0.bytes and node.batch.bytes.
// A refactor of the emission path must leave all 48 unchanged; a deliberate
// change of an observable format re-captures them and says so.
var obsGolden = map[string]string{
	"crosscluster/1/chrome":        "2818eff69e1c68b7324d9d344530919298f6d38ef30f98d7ff0e2b88f6254f18",
	"crosscluster/1/dump":          "734c26627ba0bb379fb19c221ea2da5e0ea8fb6612b973c47f279b8caac113bd",
	"crosscluster/1/snapshot":      "08b63d5afb2efe4be56e57882aa6de63c15f3c580c00b0f3d917e58c17240cff",
	"crosscluster/1/trace":         "85831a8afdb270aa921dbcf66a14981e32adea05afca35e76254cbd13acf09b2",
	"crosscluster/1/wire-chrome":   "d5b059c0e1fcb8d993e59e580f46397ff10151096b9bb966d60534c7ae97b360",
	"crosscluster/1/wire-dump":     "6e42e685b753258565fee85076dc8d84ff7bae46ba544e17a5e4f1f18d767b66",
	"crosscluster/1/wire-snapshot": "3290971be667015a082b7160a3cdb7e1e74d75c2ddd29865c6ff9aba7e47ab6e",
	"crosscluster/1/wire-trace":    "76a45ec8209804c15220b63da9345cf9c062b6a411ca5d268226254329f26dcb",
	"crosscluster/2/chrome":        "2818eff69e1c68b7324d9d344530919298f6d38ef30f98d7ff0e2b88f6254f18",
	"crosscluster/2/dump":          "734c26627ba0bb379fb19c221ea2da5e0ea8fb6612b973c47f279b8caac113bd",
	"crosscluster/2/snapshot":      "9820b4f117aba48973e0dab1b0f31fe001a1b7634146289d0931f0f943f79085",
	"crosscluster/2/trace":         "5b29c2afcac6ce36ca1007684fc594149e2ecdc9cb6f6889245b38ddd7c1fdc4",
	"crosscluster/2/wire-chrome":   "d58fef8a582307f1b28029bf88527bb9871a833fd6d0b0aa79cd5092729c8cef",
	"crosscluster/2/wire-dump":     "33a933758f4225166fd0c371957c4150d02a9c83905ddcb3d8cf97fa4faffcb0",
	"crosscluster/2/wire-snapshot": "1ece4eea18de1da952ef197faa405f402bec74f80ce5f892abc5c7db908f2cbb",
	"crosscluster/2/wire-trace":    "343b7c297bddb064b20cd0082680eff45bc3dc3fbddc22defdfedba9dd1b99cb",
	"crosscluster/3/chrome":        "2818eff69e1c68b7324d9d344530919298f6d38ef30f98d7ff0e2b88f6254f18",
	"crosscluster/3/dump":          "734c26627ba0bb379fb19c221ea2da5e0ea8fb6612b973c47f279b8caac113bd",
	"crosscluster/3/snapshot":      "8c08669b4d37bc5e5017188c48ca7bddaff6c5bb4465919cb73a5b01a43ec02a",
	"crosscluster/3/trace":         "119739d398bcf56bf729d48758bcef42788f5f20815cb1e676fc25d9b019ae0a",
	"crosscluster/3/wire-chrome":   "9a81f769ad33a3ac24ac0bde9bbc0d9ba0523854424a8c3cd20c1c78f04eaabb",
	"crosscluster/3/wire-dump":     "c8f2eda55faca6264adb58b7e99e807c14dc91b19d44a82ec79a954c38c35485",
	"crosscluster/3/wire-snapshot": "24aed8d83eaffba48baf3889a9979b6f84de87116d2c65d86627416d8895f233",
	"crosscluster/3/wire-trace":    "ee97e8818b99c62f817e70574b02afc9a6e7113cf8329ac5cf3a857285d4d2cf",
	"sumsq/1/chrome":               "d23fb450cc824095caf3a054505c341b0e6fa15c0b32c02d82ae019a7f4146f4",
	"sumsq/1/dump":                 "55b319df2b9851b06a90129cb0235c8d6a08a764a01f4e163f1fa358405e78c9",
	"sumsq/1/snapshot":             "08e0080197036377b7a2bc994346cf2976d16fe5f60e6f204d3e2b2fc61d00fd",
	"sumsq/1/trace":                "d135e21adf041a06e02644928e43ded3f567eacc589309f4bb15f4f7705ceabc",
	"sumsq/1/wire-chrome":          "a747e030decec4826e27f63095c78cffb413d76006042f83cf6fe6ca608f4c39",
	"sumsq/1/wire-dump":            "47bd7beb88e32d4333dc7daf079c4683171ccfa3b54179845f4911391867b29a",
	"sumsq/1/wire-snapshot":        "fdc9d84f98124d938ab0327fd68c735e8c8b4225c5dad1fc5e94761876ecdd72",
	"sumsq/1/wire-trace":           "cc96eabb8bdb8cf3c112701b2a322d463160824b61d026ef680fb3f56be57bba",
	"sumsq/2/chrome":               "53b8ac2e81a5bdc0eb2a8b816c066816d299eeb735c2d0e4c32f02f34de1c67c",
	"sumsq/2/dump":                 "626c3a7ad945f3743f486b5cccd5663e21f7214fbf2c5d43de6ad6a6309c8fe4",
	"sumsq/2/snapshot":             "08e0080197036377b7a2bc994346cf2976d16fe5f60e6f204d3e2b2fc61d00fd",
	"sumsq/2/trace":                "2a1d99a220a051e16d89c8b6979cf670d767e1670ed0b877bb48f51017391903",
	"sumsq/2/wire-chrome":          "9c8dae34c83d6892509e72472bf9590a79f2c260a93fc1526dd0279a8a70dc08",
	"sumsq/2/wire-dump":            "5bbf8316956a9ffa83165eb92a026dcd94d51b9f12d6ebc2c92aec3eddc7c302",
	"sumsq/2/wire-snapshot":        "870daa8d9baae9e11f8e6bcb125f90beef65d454dff7de85384d1d07001429a3",
	"sumsq/2/wire-trace":           "dd5fbd7c2916f335746d771f305da71dc609648be6d4f0ff1d284de1ab0d8191",
	"sumsq/3/chrome":               "b535c0f92a63169a626cab8306990f19fcf94a0c6f9f4f8f6444f44402affdab",
	"sumsq/3/dump":                 "626c3a7ad945f3743f486b5cccd5663e21f7214fbf2c5d43de6ad6a6309c8fe4",
	"sumsq/3/snapshot":             "e266f1fcf953375185c3554a1999d62973fc273b5fab247a0f4b5bb0580fe6e3",
	"sumsq/3/trace":                "fc2ec8db2b638054d211c2675bc8437b0ccb9cbb4e959d87c3d5064500dcbd50",
	"sumsq/3/wire-chrome":          "81de97be96b3fa113c6575a9eb3b19392e6e1c13d2fc5ccf0abcd3e9f8d6f543",
	"sumsq/3/wire-dump":            "76f39443eee17eaf3bdc1209135109e72b49023cc3dcdcd46f64dad096b61797",
	"sumsq/3/wire-snapshot":        "49659ced54a90185796c45f242e0bfcb1671867e6eb03ca483ab6e03f018d3bf",
	"sumsq/3/wire-trace":           "ab9ab540b669203891a86af7611d4811f6f5bc1489962dcf81ea2bd3ad3c2cbd",
}

func goldenPrograms(t *testing.T) map[string]string {
	t.Helper()
	sumsq, err := os.ReadFile("../../examples/sumsq.pf")
	if err != nil {
		t.Fatal(err)
	}
	_, corpus := Corpus()
	return map[string]string{"sumsq": string(sumsq), "crosscluster": corpus["crosscluster.pf"]}
}

func TestObservableBytesMatchParent(t *testing.T) {
	var mismatches []string
	for name, src := range goldenPrograms(t) {
		for seed := int64(1); seed <= 3; seed++ {
			inst := RunInstrumented(src, seed)
			got := map[string][]byte{
				"trace":    []byte(strings.Join(Run(src, seed).Trace, "\n")),
				"dump":     RunRecorded(src, seed).RecorderDump,
				"chrome":   inst.ObsTrace,
				"snapshot": inst.ObsSnapshot,
			}
			// The wire path (routeRemote, DeliverWire, initiate replies) only
			// runs between the VMs of a mesh; sweep it with every sink on.
			reg := obs.New()
			reg.Enable(obs.Metrics | obs.Spans)
			wire := runMesh(src, seed, reg, obs.NewRecorder(0, 0, 0), 0, nil, nil)
			got["wire-trace"] = []byte(strings.Join(wire.Trace, "\n"))
			got["wire-dump"] = wire.RecorderDump
			got["wire-chrome"] = wire.ObsTrace
			got["wire-snapshot"] = wire.ObsSnapshot
			for what, b := range got {
				key := fmt.Sprintf("%s/%d/%s", name, seed, what)
				if len(b) == 0 {
					t.Errorf("%s: empty artefact", key)
				}
				sum := fmt.Sprintf("%x", sha256.Sum256(b))
				if obsGolden[key] != sum {
					mismatches = append(mismatches, fmt.Sprintf("\t%q: %q,", key, sum))
				}
			}
		}
	}
	sort.Strings(mismatches)
	if len(mismatches) > 0 {
		t.Errorf("observable bytes differ from the parent capture; got:\n%s", strings.Join(mismatches, "\n"))
	}
}
