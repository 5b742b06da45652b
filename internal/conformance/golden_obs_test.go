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
// re-captured once when a fault run became one VM per cluster.  A refactor of
// the emission path must leave all 48 unchanged; a deliberate change of an
// observable format re-captures them and says so.
var obsGolden = map[string]string{
	"crosscluster/1/chrome":        "2818eff69e1c68b7324d9d344530919298f6d38ef30f98d7ff0e2b88f6254f18",
	"crosscluster/1/dump":          "734c26627ba0bb379fb19c221ea2da5e0ea8fb6612b973c47f279b8caac113bd",
	"crosscluster/1/snapshot":      "8e0a5b612ecbf9db7cdb06bcc39ebf9f54b093c685f6b252571504bb3d4c0a4a",
	"crosscluster/1/trace":         "85831a8afdb270aa921dbcf66a14981e32adea05afca35e76254cbd13acf09b2",
	"crosscluster/1/wire-chrome":   "9e353c11e03d3002449f15c9f36672628a53997b54493d2b00dc12eb72ab9b5d",
	"crosscluster/1/wire-dump":     "ad573874b1ac51fd64b55b371f61cb1c779975168f74227d6d45ea64307a3b85",
	"crosscluster/1/wire-snapshot": "563853c6e53cbb786aafa5b379a967ed6e6aa50a99f70d86ae7f3709b0b1d8ee",
	"crosscluster/1/wire-trace":    "d261501d7b04595b22ffe978a5ef283ff6ddd2e57a0586530bc65fa343962cb9",
	"crosscluster/2/chrome":        "2818eff69e1c68b7324d9d344530919298f6d38ef30f98d7ff0e2b88f6254f18",
	"crosscluster/2/dump":          "734c26627ba0bb379fb19c221ea2da5e0ea8fb6612b973c47f279b8caac113bd",
	"crosscluster/2/snapshot":      "3626221221318ff53a9335aa83c49bf5ec44f452d1b80ee0639fd8e6ef9d6581",
	"crosscluster/2/trace":         "5b29c2afcac6ce36ca1007684fc594149e2ecdc9cb6f6889245b38ddd7c1fdc4",
	"crosscluster/2/wire-chrome":   "f5e830c10d99fdd4f3d8d9981eaeb5d2a42f63ac922256ccca863042657d8107",
	"crosscluster/2/wire-dump":     "030ebd2eae986319ea66b75c816c5cdeebcce8184c754824307950ae1a27680d",
	"crosscluster/2/wire-snapshot": "84956136b8da1b8717b56571a91594c6f7e694ed46750031bc3a42387f37d7ef",
	"crosscluster/2/wire-trace":    "d92b8b509b1e81fec2f32b17c3b08731bff37a4262ecf9cf092e74e591864509",
	"crosscluster/3/chrome":        "2818eff69e1c68b7324d9d344530919298f6d38ef30f98d7ff0e2b88f6254f18",
	"crosscluster/3/dump":          "734c26627ba0bb379fb19c221ea2da5e0ea8fb6612b973c47f279b8caac113bd",
	"crosscluster/3/snapshot":      "76c08b9d84a56dd7cfae3429241ad90d087e0646d4e61be0531611f969eeda40",
	"crosscluster/3/trace":         "119739d398bcf56bf729d48758bcef42788f5f20815cb1e676fc25d9b019ae0a",
	"crosscluster/3/wire-chrome":   "3798254160ebe6392273015c03e8dfe93ff7bf6265f92e68ffa30ae8f830313d",
	"crosscluster/3/wire-dump":     "7b79be56dd1db589f0dc4e6bc04e663a88aea3ebb8d72f698f63fe7e3274c000",
	"crosscluster/3/wire-snapshot": "afaab7909d1061d8be3832d01fcf2a716d83f13beb3c9a7547232c28af6132f7",
	"crosscluster/3/wire-trace":    "e014d4394334af4eed1b7259ca8bb1c399436863bbc505e7e509f9a86fa20e1d",
	"sumsq/1/chrome":               "d23fb450cc824095caf3a054505c341b0e6fa15c0b32c02d82ae019a7f4146f4",
	"sumsq/1/dump":                 "55b319df2b9851b06a90129cb0235c8d6a08a764a01f4e163f1fa358405e78c9",
	"sumsq/1/snapshot":             "15c36998bff43d51312d64d9a100c880e71a381b2d4529b214fa6f799c5841e3",
	"sumsq/1/trace":                "d135e21adf041a06e02644928e43ded3f567eacc589309f4bb15f4f7705ceabc",
	"sumsq/1/wire-chrome":          "37846af6cbb2fc0744de490f1b08c35096b2aab303fc31fa664266d1904454b6",
	"sumsq/1/wire-dump":            "6047a4ae7651247f22fd8bba32f1ed597dd340014fa8082b5332b286a896346b",
	"sumsq/1/wire-snapshot":        "0dd5a98c0e5ccd4490ca567552f5c0d98a43933fe26b3d592ad5e5d935faf3ad",
	"sumsq/1/wire-trace":           "caa45b0a762e7ec257ab5dfeb649edae14da232b7ae93e983dd9a486040d7e2d",
	"sumsq/2/chrome":               "53b8ac2e81a5bdc0eb2a8b816c066816d299eeb735c2d0e4c32f02f34de1c67c",
	"sumsq/2/dump":                 "626c3a7ad945f3743f486b5cccd5663e21f7214fbf2c5d43de6ad6a6309c8fe4",
	"sumsq/2/snapshot":             "15c36998bff43d51312d64d9a100c880e71a381b2d4529b214fa6f799c5841e3",
	"sumsq/2/trace":                "2a1d99a220a051e16d89c8b6979cf670d767e1670ed0b877bb48f51017391903",
	"sumsq/2/wire-chrome":          "2bd8caa0e5e030fda253288a4c8ef70b569db3cf90aed14baa0349ad2fc57ff3",
	"sumsq/2/wire-dump":            "6c89e7ed14277fd46d16aa993ded4e492d995690ab8cc86e0ae2d79fa183d66a",
	"sumsq/2/wire-snapshot":        "74df928215b0399b7c6764f372bb5f5439c6778424f87c2e6c1d61dfefc3ddfa",
	"sumsq/2/wire-trace":           "92e4194588e7a1ff2859db73b5410434984619d8e723ed509079b47184569a53",
	"sumsq/3/chrome":               "b535c0f92a63169a626cab8306990f19fcf94a0c6f9f4f8f6444f44402affdab",
	"sumsq/3/dump":                 "626c3a7ad945f3743f486b5cccd5663e21f7214fbf2c5d43de6ad6a6309c8fe4",
	"sumsq/3/snapshot":             "aa39830ee31381c97a924f046eca60d0992355e97b18ac8daf632a0c364a6c31",
	"sumsq/3/trace":                "fc2ec8db2b638054d211c2675bc8437b0ccb9cbb4e959d87c3d5064500dcbd50",
	"sumsq/3/wire-chrome":          "8fdde664fb117ab244ee43e086da30b12b03b6e96a745278ec84d1da3b311a0a",
	"sumsq/3/wire-dump":            "ee607cd4decc40e4070dbaa1b614d25afe1056d7276ac661dd41189be73eb41b",
	"sumsq/3/wire-snapshot":        "ba6c2ef34691cabd55709ddf40c8b8bfebffdcb981d1ec1490b6474d866be824",
	"sumsq/3/wire-trace":           "37f7044f4cf36caa9fae757c3f483b6b7bd7c6b5522cb3c503f166625805879c",
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
			wire := runMesh(src, seed, reg, obs.NewRecorder(0, 0, 0), nil)
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
