//go:build amd64 && !race

package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"mmbench/internal/engine"
	"mmbench/internal/gemm"
	"mmbench/internal/precision"
	"mmbench/internal/workloads"
)

// outputDigests pins the sha256 of an eager run's output float bits
// (little-endian, in order) for the default paper-scale variant of every
// workload at f32, f16 and i8, batch 1 and 2, default seed. A report
// carries no f32 output value, so report digests cannot see an f32
// numerics change; this map can. The keys are "workload precision
// batch". The assembly kernels fuse every multiply-add and the portable
// ones round per step, so the map holds for amd64 assembly builds and
// portableOutputDigests for the portable kernels on amd64 (-tags noasm,
// or a host without AVX2+FMA); other architectures may fuse where amd64
// does not, so the test is amd64-only. The race detector adds nothing to
// a pin of numerics but a tenfold wall, so race builds leave it out.
var outputDigests = map[string]string{
	"avmnist f16 1":    "64625d93bbc682e703222afb18570768b29938e5f950adb94f358542d0a37075",
	"avmnist f16 2":    "e4dedbebcdca927da56fe1135e9c4213645ed6f854ebf93d38904abc66ac64d1",
	"avmnist f32 1":    "83a5318e4d1a38dd4e11e161b86d7a980a3826af1a2768da25d672c37f4c3d7c",
	"avmnist f32 2":    "e0b50b223d5a6fabb82bc4873ea086b3292a92fd866f05642f940c24071b4342",
	"avmnist i8 1":     "d1bf437b2d8b52e7cec8a9b7892bbed7fd05b54fd94c94cde6c044d121a835c5",
	"avmnist i8 2":     "76b074e1a583cabc86f45418572491c55fa221a5546fc5f69b39586886303622",
	"medseg f16 1":     "54855e228f18452fdca768a5267fffe5ded072cefe8fab1caf348e49740796be",
	"medseg f16 2":     "f9d104edc7afb648848bf7e10548056bf7e76f2c5997e034f3f69c1d96e1ebd2",
	"medseg f32 1":     "a5e1fda314aa7bbb15e9b18449194dfb48b988b3e8b81e6d59807828b2be30ce",
	"medseg f32 2":     "1e15913b3cfe706ebc3e0b844ab13e56f9a379151876c9b9b4b8f5ea2317ddcc",
	"medseg i8 1":      "fdd4e8a2ef7d5f03fee72ee53217a296460fb568cef26f01e1188072b16fe6e9",
	"medseg i8 2":      "7567408f06904cf114a91f1782ccb07785617f8c28a04dc8b8b1b4724921fd82",
	"medvqa f16 1":     "1f03bf5711126a083a3981789c86f6b226bc5fbf6ab9e62d53f432eca44e6ec3",
	"medvqa f16 2":     "00244b3c4ca303f325c905bc7933836b865b7dfc245c81fd07a077b3d6e01111",
	"medvqa f32 1":     "114c2bd929b3fe9077824cb2af5c2a75533b3873670f3871601a04171b1659c5",
	"medvqa f32 2":     "e4c8b612c606d566df8cd43b2cee656f17826569ed3914bfe0f32f380d04af8f",
	"medvqa i8 1":      "4ef4a89ed737a1be45571efe1505b58308d3321e2910fdaf588784006fa1dfe3",
	"medvqa i8 2":      "1db9882fdeec98cb5b6c814627df72bec1fc3319187c261d86baf5442c1b59e7",
	"mmimdb f16 1":     "aa7907c31dff91b0e9c218bfc007f20cd74edda487d1e08f7aa10c3cb4f01dc9",
	"mmimdb f16 2":     "2e395a4030fa67e2d1488ab35f2550a00bfda1724116fb02cb842d3e66f182cd",
	"mmimdb f32 1":     "c199c758512a82deb78b70c26f231ba0a2891dc3227a22b5e3fd3891fa2427ad",
	"mmimdb f32 2":     "ac6f74ac29774fd37160e9d270a3410e23e53c97bed31558097fe3c6511bd634",
	"mmimdb i8 1":      "0c2c4fe9ba66c1418ddde0336e13776a1d8e3ccd3e7f890f819c6710bbfab1cb",
	"mmimdb i8 2":      "d72b153776ff95c50fc413595d97b6e2004eed9b325f82a4e92271b73b6defab",
	"mosei f16 1":      "a3c4a814ec1ba47d2b6ba2a2a9a51a43f24f868c641bdc8657c14df0b3c35e66",
	"mosei f16 2":      "4c2d9575f410d35935016926ad9867a8aab674f54a34758510077d05b815f1b3",
	"mosei f32 1":      "8b258ce0feb520e3ceb477f75ce5254c7a8f42e5d71676a8a6ae565a68089663",
	"mosei f32 2":      "77e22e90202e5b90ae924c80e3ee7408682983b3838a8fa70a59f0ed6fb9acfc",
	"mosei i8 1":       "c3a876702aa9345de9206b182a851c2628a229a38da83b9bc3b5213567c2c2e0",
	"mosei i8 2":       "17c824e3ff89ce84bae11043d2178cad841a5e41dfcc818cea2b7c0b6f8b3861",
	"mustard f16 1":    "7753c771e2ceda496c0c66988f7c9ace889877844eea9dad692551af87202846",
	"mustard f16 2":    "5525e37e7514aef8c3a03e65957637e8ac2c5d7232e36355a70a07ba9a5de4d1",
	"mustard f32 1":    "63d8cf1b5a31a8ff8c4a37dc026cb040b4ffd1dd684c800fff4c27e68b0d9211",
	"mustard f32 2":    "2eb2fa1ac9388728386d53c50c523c97acb24a03ca312ab8e4a97d60ad202cea",
	"mustard i8 1":     "f00711c6c2a65b4cc5e4e35ee04a7b440342b2d25682a2abb2231555170aac79",
	"mustard i8 2":     "9fb87dfee6ab6594fe7e3cf445b809fff7debb36cd38e88cedd5d327f25c0bd7",
	"push f16 1":       "1f6b98fffcc14c191836068b177c52964e1bc62692154328d6c7dacdf0596911",
	"push f16 2":       "775f5acdb007823c57dc1e2c8c33a2399ab9e599a2257e2c86adada61e51ec2f",
	"push f32 1":       "3aaa19dac34fc93c1873fe66cf4bb8a1bbc4d3b34eb1424f4397251d60610845",
	"push f32 2":       "efaca3039ed567d665eb5c3e7c2068e4119edb7a37cdca674e32d49ee933fe5e",
	"push i8 1":        "466edf558e138974588b4fd79115ff7d548e6929b25a99e0776fda0a1f24b308",
	"push i8 2":        "5b24281d0206298f467bb06549d3887b71d1bf12bb19d73fc8f09df31937d8a9",
	"transfuser f16 1": "354d10a2f49c785dfbfda05adc5cea0d4255e114e502cc07e815d5587ca302e5",
	"transfuser f16 2": "1c5e831cefa3f7e27b322fe33d723d23cafb0cb3819df223c80b5dd59e467dd7",
	"transfuser f32 1": "b80a2ce1177412116bdf73728f2206b5f53601be427466edd3130bcbfbd403d1",
	"transfuser f32 2": "4f8cb4a048f65b2f339a44ab0410c5d800dc80629213004b5b0db54a3736e285",
	"transfuser i8 1":  "9ec7b661ebb3a5913579699bba75cf6637b99834b44c2bcaa2b1564fb282cfa0",
	"transfuser i8 2":  "d0de7f8f8831bd1f315d96a36f9b0f1410cdd6ab10fa45b72d87e986ebff317b",
	"vnt f16 1":        "df39eecbfbcc11285abb7ee4616eed135a8e05914795073cb907e3afaf4e17d5",
	"vnt f16 2":        "596e2535659250e89338b2309222f7d69e28a3921854a7933f23db0588b327e8",
	"vnt f32 1":        "8cd32571a1809fb2fb0bc35cc3f10827b43cfbdeb5d6862c3fef7c6f61cf6b49",
	"vnt f32 2":        "1f91e2fe8e9392c4abb4354e3227b0fe0a0c88e42b0fff68a83b34d13f23ffd3",
	"vnt i8 1":         "5b2ca6bc296c0fe89ddadbeac397b6f48280a6c519da8a9187d45961e383d44a",
	"vnt i8 2":         "c069b897c10ba3d1236d9894cc3c61029564370eeb3e44b5fe76e0cc2420de62",
}

// portableOutputDigests is outputDigests for the portable Go kernels on
// amd64 (gemm.KernelName() "generic"). Every f32 entry and every f16
// entry but avmnist's differs from the assembly map; of the i8 entries,
// mmimdb 2, mustard 1 and 2, push 2 and transfuser 1 differ (their int8
// products are exact in both builds; some float work around them is
// not). Under -tags noasm the test takes about five minutes on two
// cores.
var portableOutputDigests = map[string]string{
	"avmnist f16 1":    "64625d93bbc682e703222afb18570768b29938e5f950adb94f358542d0a37075",
	"avmnist f16 2":    "e4dedbebcdca927da56fe1135e9c4213645ed6f854ebf93d38904abc66ac64d1",
	"avmnist f32 1":    "65b75856fee1369c110b65b71516d1ceb95d2364da3364696620c6fb4482a34c",
	"avmnist f32 2":    "fdec5069de904c2bfa29094b378729c6e7d4740ece76286dc00d8a16021cfd29",
	"avmnist i8 1":     "d1bf437b2d8b52e7cec8a9b7892bbed7fd05b54fd94c94cde6c044d121a835c5",
	"avmnist i8 2":     "76b074e1a583cabc86f45418572491c55fa221a5546fc5f69b39586886303622",
	"medseg f16 1":     "ab090fc6a21231698240ea1d515ec4ad44a5ab2630f5b71c960ddb8b0be3810a",
	"medseg f16 2":     "126456ba8525c061682a058d1410f0ef740d17d8b5112daa2a879e1b2444e959",
	"medseg f32 1":     "3748cf59e2c50c58c42e0383a52bed34bdc7c0d06faccb86170d055884869ddf",
	"medseg f32 2":     "1d8d1f8bc3ecc9e8e7b91f29f19ff4ca258a123bfe609cf2d878fbd193fd2d62",
	"medseg i8 1":      "fdd4e8a2ef7d5f03fee72ee53217a296460fb568cef26f01e1188072b16fe6e9",
	"medseg i8 2":      "7567408f06904cf114a91f1782ccb07785617f8c28a04dc8b8b1b4724921fd82",
	"medvqa f16 1":     "d466cf1a7c09a3ed74dcb923ec48c25137ea57dbffd5699fa327110c1cda8658",
	"medvqa f16 2":     "55bd95fdce3e1d03aba44227dad4d516f2dc33ce8f12d4743b8da2e95bbad6de",
	"medvqa f32 1":     "5a0aadcf0d2ae9fb6771623a0c4d233c09efa3546f6ba44a302d5638b9dfdc06",
	"medvqa f32 2":     "4e22243497d509fcd5ada305753dbeafe195a0b8e1cf707cba6557f1096e430b",
	"medvqa i8 1":      "4ef4a89ed737a1be45571efe1505b58308d3321e2910fdaf588784006fa1dfe3",
	"medvqa i8 2":      "1db9882fdeec98cb5b6c814627df72bec1fc3319187c261d86baf5442c1b59e7",
	"mmimdb f16 1":     "d9962a5b806bce78e2e48fd68cfc6e7f496bb80a745fd3013e1e5d87ef9e47a2",
	"mmimdb f16 2":     "49b64ba8ffe53df6074f495980a37f6ad4474d5aab7620a0180cc9b997be44fe",
	"mmimdb f32 1":     "7e8313d94c5ef67d6b0eed62aebcb1ae530e75ad1dff9da0cca9f177f643f4c1",
	"mmimdb f32 2":     "bd5e39164e901f6d6ae080e44763b12cfb48ba3432fd5b659fc8b51be66bec4a",
	"mmimdb i8 1":      "0c2c4fe9ba66c1418ddde0336e13776a1d8e3ccd3e7f890f819c6710bbfab1cb",
	"mmimdb i8 2":      "1707de481450ec5aa394a486ac74927151bffbf8b562e0e1fa76ef5467cc8870",
	"mosei f16 1":      "b2cae3c7de77ff5eb6078ffd8ad57d1aff02e52443d4e3cda3b0fcf259fc7bae",
	"mosei f16 2":      "527a31dba3fa1ac3870ff62c8c64183eef1cbe3aed891c18debb55db135d9207",
	"mosei f32 1":      "463519011408585b81ce36f9dc27bc5d5769a7bcdeca2e7ed069abffdd2654d0",
	"mosei f32 2":      "16bde6d2c4b6cde4adb64b63427fd445c820e30ea356c821c61484baed622617",
	"mosei i8 1":       "c3a876702aa9345de9206b182a851c2628a229a38da83b9bc3b5213567c2c2e0",
	"mosei i8 2":       "17c824e3ff89ce84bae11043d2178cad841a5e41dfcc818cea2b7c0b6f8b3861",
	"mustard f16 1":    "c805ca7647b96b0e9e771e44080951a507cd1b02078eab69856c11a446b308d2",
	"mustard f16 2":    "9a0b7d5394e89ddfe16c05c99de351d57752f84b1220fbaab9876a73f8968b3d",
	"mustard f32 1":    "3a0eb275b56cff9d94a1ccebca6e5712a000631d66b1c1bac5a13d25d532747b",
	"mustard f32 2":    "5e2cb1e72f481b6b070b496e34e21a5c996224630fb1bbd8a23601036111d7f9",
	"mustard i8 1":     "f38da1cdd7061968818890c3dfe10e54bf3a1e7fa702d00f5fe7fe20c443311b",
	"mustard i8 2":     "c8a06f30dfd270719805444640ff22fceb0b1a6bb2e9d1fc26baa23e9afe3085",
	"push f16 1":       "b0b2a25bfe15468c39395ceb8f47217ebc834bccc021a2ff7eb861e7b890c620",
	"push f16 2":       "2be8284249f6f7b7495382b0a2134bce1d6e1845166432be4f0545f1e13b6456",
	"push f32 1":       "616bbcab0eeee5a830b50ea612bebb11c31413a37a9578b1282bfcf77d176fca",
	"push f32 2":       "4776ca56495ba7d67a9a830945496c470a2fe7dfd9a6509dd1e8a350382ddd7a",
	"push i8 1":        "466edf558e138974588b4fd79115ff7d548e6929b25a99e0776fda0a1f24b308",
	"push i8 2":        "f89e4dcc1f1d478a73dfeac789780693d68cb0c94ea4b90f9282473c37867471",
	"transfuser f16 1": "7f94293c72e1d54a762e7881f1451a5ea2892e3e57f654728095b7ddfe212d13",
	"transfuser f16 2": "66568c88dc26447a3de691ff83dbc302bdb483be4683c2093dd27637bbb728b7",
	"transfuser f32 1": "f8912248bae98574847c7281d8dae1a402b920e0a2688f67c33ce0aff0dbb3ee",
	"transfuser f32 2": "07390ddaa2836a110671481d7cf1a045b9d92d23adbe533d6f8e66e0030b0dda",
	"transfuser i8 1":  "af23cebb5180639b1000f01cb670c60e3b1da37dea1346b80805751a6d1a249c",
	"transfuser i8 2":  "d0de7f8f8831bd1f315d96a36f9b0f1410cdd6ab10fa45b72d87e986ebff317b",
	"vnt f16 1":        "6d9528ea2cff12446a8ae973c882a8add02c7b6b1cbe32333dbd05e1547b776b",
	"vnt f16 2":        "45cbe977a9c3dfbf85522703b0ca4e08d144b5a95a08ffb1dde01c53cd380fc2",
	"vnt f32 1":        "af255f0091b84ac5bc336b46dee261d37b07d03f50b80c86005a443b2a83fa57",
	"vnt f32 2":        "8df8c23d626cdb64a4f5777a5c8ea780a6378c5c837a22938b628a8bbcc956e2",
	"vnt i8 1":         "5b2ca6bc296c0fe89ddadbeac397b6f48280a6c519da8a9187d45961e383d44a",
	"vnt i8 2":         "c069b897c10ba3d1236d9894cc3c61029564370eeb3e44b5fe76e0cc2420de62",
}

func outputDigest(out []float32) string {
	h := sha256.New()
	var b [4]byte
	for _, v := range out {
		binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestEagerOutputDigests checks every eager output against outputDigests.
// On a mismatch it prints the whole map as computed, so an intended
// numerics change can replace it in one edit.
func TestEagerOutputDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every paper-scale network")
	}
	want := outputDigests
	if gemm.KernelName() == "generic" {
		want = portableOutputDigests
	}
	e := engine.New(2)
	defer e.Close()
	got := map[string]string{}
	for _, name := range workloads.Names() {
		info, err := workloads.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		n, err := workloads.Build(name, info.Fusions[0], true, workloads.WeightSeed)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []precision.Type{precision.F32, precision.F16, precision.I8} {
			pol := precision.Policy{Encoder: p, Fusion: p, Head: p}
			for _, batch := range []int{1, 2} {
				r, err := Run(n, RunOptions{Eager: true, BatchSize: batch, Precision: pol, Engine: e})
				if err != nil {
					t.Fatalf("%s %s batch %d: %v", name, p, batch, err)
				}
				got[fmt.Sprintf("%s %s %d", name, p, batch)] = outputDigest(r.Output.Value.Data())
			}
		}
	}
	bad := 0
	for key, d := range got {
		if w := want[key]; d != w {
			bad++
			t.Errorf("%s (%s kernels): output digest %s, want %q", key, gemm.KernelName(), d, w)
		}
	}
	if len(want) != len(got) {
		t.Errorf("the %s kernels' digest map has %d entries, the runs give %d", gemm.KernelName(), len(want), len(got))
	}
	if bad > 0 || len(want) != len(got) {
		keys := make([]string, 0, len(got))
		for k := range got {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var b strings.Builder
		for _, k := range keys {
			fmt.Fprintf(&b, "\t%q: %q,\n", k, got[k])
		}
		t.Logf("computed map:\n%s", b.String())
	}
}
