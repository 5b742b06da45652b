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
// metric snapshot (RunInstrumented), and the same four from a run behind the
// fault transport with every sink on, which is the only schedule that takes
// the wire path (routeRemote, DeliverWire, initiate replies).  A refactor of
// the emission path must leave all 48 unchanged; a deliberate change of an
// observable format re-captures them and says so.
var obsGolden = map[string]string{
	"crosscluster/1/chrome":        "2818eff69e1c68b7324d9d344530919298f6d38ef30f98d7ff0e2b88f6254f18",
	"crosscluster/1/dump":          "734c26627ba0bb379fb19c221ea2da5e0ea8fb6612b973c47f279b8caac113bd",
	"crosscluster/1/snapshot":      "8e0a5b612ecbf9db7cdb06bcc39ebf9f54b093c685f6b252571504bb3d4c0a4a",
	"crosscluster/1/trace":         "85831a8afdb270aa921dbcf66a14981e32adea05afca35e76254cbd13acf09b2",
	"crosscluster/1/wire-chrome":   "2a8ba21d31e8f79f060699113839e8257313530ab274b2022e801a7e357b5ecd",
	"crosscluster/1/wire-dump":     "108d44aff4e1ed5e9a46aff9552fb8817da82a38275a4a01888d612dd44e719f",
	"crosscluster/1/wire-snapshot": "bdca4c7f9622b93d78ed4bf08939bf61118ce8a8b0745f0fd3c316af2c2f3c66",
	"crosscluster/1/wire-trace":    "a4585a402f4eae9cddcb3ac8933c07ad8a5792eb59de812fdc299bd8694ec283",
	"crosscluster/2/chrome":        "2818eff69e1c68b7324d9d344530919298f6d38ef30f98d7ff0e2b88f6254f18",
	"crosscluster/2/dump":          "734c26627ba0bb379fb19c221ea2da5e0ea8fb6612b973c47f279b8caac113bd",
	"crosscluster/2/snapshot":      "3626221221318ff53a9335aa83c49bf5ec44f452d1b80ee0639fd8e6ef9d6581",
	"crosscluster/2/trace":         "5b29c2afcac6ce36ca1007684fc594149e2ecdc9cb6f6889245b38ddd7c1fdc4",
	"crosscluster/2/wire-chrome":   "a33f89809cb4f732953379873724a35560d44c4f0050e3ceda82b45f017f32cc",
	"crosscluster/2/wire-dump":     "674c94599cb916efbddddfa66a537e599b52776306e9e260a00d176e5309c1df",
	"crosscluster/2/wire-snapshot": "d4d505e28fa0cda031507e54326053d0b96516ce7ceaade9997c9e0652999efb",
	"crosscluster/2/wire-trace":    "b4cfb523d2818ece83420306784a3a4bba084da1bf4b530e264e2720d9957a15",
	"crosscluster/3/chrome":        "2818eff69e1c68b7324d9d344530919298f6d38ef30f98d7ff0e2b88f6254f18",
	"crosscluster/3/dump":          "734c26627ba0bb379fb19c221ea2da5e0ea8fb6612b973c47f279b8caac113bd",
	"crosscluster/3/snapshot":      "76c08b9d84a56dd7cfae3429241ad90d087e0646d4e61be0531611f969eeda40",
	"crosscluster/3/trace":         "119739d398bcf56bf729d48758bcef42788f5f20815cb1e676fc25d9b019ae0a",
	"crosscluster/3/wire-chrome":   "3b9b555d7aecd0d1193ac3277dfe9f0dbfbeb6f3600f894eb4c6e7d7cea7ebbe",
	"crosscluster/3/wire-dump":     "05c5b6d18ede93e3316c1829f26f1329d8e5191c5bc9a904200e2b2b0a0aa794",
	"crosscluster/3/wire-snapshot": "6f56a5d6adbf1012d4a8c0a091e5637d85fd8e7d7419527f5ee331288c5e82ba",
	"crosscluster/3/wire-trace":    "b4e0c5f7c9767474ebc30b22171d29d5d8cd89cced42d6c6dcbb1708fe15a016",
	"sumsq/1/chrome":               "d23fb450cc824095caf3a054505c341b0e6fa15c0b32c02d82ae019a7f4146f4",
	"sumsq/1/dump":                 "55b319df2b9851b06a90129cb0235c8d6a08a764a01f4e163f1fa358405e78c9",
	"sumsq/1/snapshot":             "15c36998bff43d51312d64d9a100c880e71a381b2d4529b214fa6f799c5841e3",
	"sumsq/1/trace":                "d135e21adf041a06e02644928e43ded3f567eacc589309f4bb15f4f7705ceabc",
	"sumsq/1/wire-chrome":          "0f74a26ec87c753000faa8c8a31cc1f49905aac8cbaaaccabef7594ac394321c",
	"sumsq/1/wire-dump":            "696e875443f080c6181a1c6218a7a8c489a91d8b512a0247ed1611d0e6d192b1",
	"sumsq/1/wire-snapshot":        "6448469b45fe7e8884f3d9a2139a2e2d9be418a86629ac1981c7b86b26c50926",
	"sumsq/1/wire-trace":           "81ea9432f3aaa18fe9a699f891f73fc7349fcf3e66f1b2650a1e208fc1da631f",
	"sumsq/2/chrome":               "53b8ac2e81a5bdc0eb2a8b816c066816d299eeb735c2d0e4c32f02f34de1c67c",
	"sumsq/2/dump":                 "626c3a7ad945f3743f486b5cccd5663e21f7214fbf2c5d43de6ad6a6309c8fe4",
	"sumsq/2/snapshot":             "15c36998bff43d51312d64d9a100c880e71a381b2d4529b214fa6f799c5841e3",
	"sumsq/2/trace":                "2a1d99a220a051e16d89c8b6979cf670d767e1670ed0b877bb48f51017391903",
	"sumsq/2/wire-chrome":          "cb8a92445070e7da5eb0217e715b64d60f4f64ceb89bf0e35237db2ddc04d8f6",
	"sumsq/2/wire-dump":            "adfcae8bd3e56ed3b61187250e239464deddc25c625747c5b3c219d1222db197",
	"sumsq/2/wire-snapshot":        "6d8a8fcb04190b505bcfcb239f39486ed3522aeafa7b5a2290f55b1eb390b9c3",
	"sumsq/2/wire-trace":           "4894b2501dd137bbb0ed8d6af0a492c70cf6ce0a596513c65d16e7762f1821a5",
	"sumsq/3/chrome":               "b535c0f92a63169a626cab8306990f19fcf94a0c6f9f4f8f6444f44402affdab",
	"sumsq/3/dump":                 "626c3a7ad945f3743f486b5cccd5663e21f7214fbf2c5d43de6ad6a6309c8fe4",
	"sumsq/3/snapshot":             "aa39830ee31381c97a924f046eca60d0992355e97b18ac8daf632a0c364a6c31",
	"sumsq/3/trace":                "fc2ec8db2b638054d211c2675bc8437b0ccb9cbb4e959d87c3d5064500dcbd50",
	"sumsq/3/wire-chrome":          "a593981fa418177705974e8640a65e03a1b8a45bd711d3f09a483089a4a8a0d5",
	"sumsq/3/wire-dump":            "76791b3c5d4682cd939914d85394308b26e6eb8cfe99e3781df9a95fe8eaa6bf",
	"sumsq/3/wire-snapshot":        "337bf3bfd503d4549c2c9c442e65222c4fbba735062b1bd18e24b222456efb70",
	"sumsq/3/wire-trace":           "adc594af3dab8f90b83401bce09c75f336aceb9fe849ba01e13f3eb2707426be",
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
			// runs behind the fault transport; sweep it with every sink on.
			reg := obs.New()
			reg.Enable(obs.Metrics | obs.Spans)
			wire := run(src, seed, true, reg, obs.NewRecorder(0, 0, 0))
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
