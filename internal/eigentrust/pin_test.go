package eigentrust

import (
	"math"
	"testing"

	"mdrep/internal/sim"
)

const pinnedPeers = 300

// pinnedLedger builds a seeded satisfaction ledger over pinnedPeers
// peers: about 20 ratings per rater, some pairs whose unsatisfied count
// exceeds the satisfied one, raters who rate nobody, and raters whose
// every rating nets out negative. The last two kinds are dangling rows
// of the local trust matrix.
func pinnedLedger() (sat, unsat []map[int]float64) {
	rng := sim.NewRNG(2007)
	sat = make([]map[int]float64, pinnedPeers)
	unsat = make([]map[int]float64, pinnedPeers)
	for i := range sat {
		sat[i], unsat[i] = map[int]float64{}, map[int]float64{}
		if i%37 == 5 {
			continue // rates nobody
		}
		hostile := i%41 == 7 // every rating unsatisfied
		for k := 0; k < 20; k++ {
			j := rng.Intn(pinnedPeers)
			if j == i {
				continue
			}
			if hostile || rng.Intn(5) == 0 {
				unsat[i][j] += float64(1 + rng.Intn(4))
			} else {
				sat[i][j] += float64(1 + rng.Intn(3))
			}
		}
	}
	return sat, unsat
}

// TestComputePinnedBits pins the exact output of LocalTrustFromSatisfaction
// followed by Compute on a seeded ledger: the float64 bits of every
// global trust value and the iteration count. A change to the order in
// which the power step or the row normalisation accumulates shows here as
// a changed bit, long before it reaches a printed digit of E3 or E9.
func TestComputePinnedBits(t *testing.T) {
	local, err := LocalTrustFromSatisfaction(pinnedLedger())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Compute(local, DefaultConfig([]int{0, 1, 2, 3, 4}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != pinnedIterations || !res.Converged {
		t.Fatalf("%d iterations (converged %v), want %d (converged)", res.Iterations, res.Converged, pinnedIterations)
	}
	if len(res.Trust) != len(pinnedTrustBits) {
		t.Fatalf("%d trust values, want %d", len(res.Trust), len(pinnedTrustBits))
	}
	for i, v := range res.Trust {
		if got := math.Float64bits(v); got != pinnedTrustBits[i] {
			t.Fatalf("trust[%d] bits %#016x, want %#016x", i, got, pinnedTrustBits[i])
		}
	}
}

// pinnedIterations and pinnedTrustBits were recorded from the map-backed
// matrix implementation that Compute ran on before it moved to CSR.
const pinnedIterations = 17

var pinnedTrustBits = [pinnedPeers]uint64{
	0x3fa4b3b7e6c66afd, 0x3fa5a1d4fb314441, 0x3fa6517ff97055f8, 0x3fa4d58195ff55c2,
	0x3fa4b6d3a1b2a7fc, 0x3f61d0e1328940d3, 0x3f636b07014ef524, 0x3f65f6d9d3b27f19,
	0x3f7742af89b3b6fa, 0x3f5b63e5eee4aec5, 0x3f614b2cd52a3b2f, 0x3f548c1fd96e1ce3,
	0x3f63cb98d74197fa, 0x3f7ab71efc2b366d, 0x3f640f3edf49d433, 0x3f61820f8a953c2a,
	0x3f5b23e6404ef456, 0x3f6be8f9c7119ee6, 0x3f5e3fadeb43be70, 0x3f63c78fe3194ba2,
	0x3f7195fd0618fe46, 0x3f5068a7adc352f7, 0x3f7ed5045de42c12, 0x3f7639d5c582b65f,
	0x3f84bcf722d761fc, 0x3f6ee2f906ea0cd7, 0x3f504abf2e4747c2, 0x3f5da27939660433,
	0x3f65945762f927a3, 0x3f66c38a0a16693a, 0x3f6a453af77663a0, 0x3f7012825c0db102,
	0x3f59912a934154e8, 0x3f70b1e9ee1e33e0, 0x3f58c57afcb98779, 0x3f64abbd784f6e1b,
	0x3f5d082add46d7b5, 0x3f6a0d841222e63a, 0x3f512df97834b779, 0x3f7e7589641ff608,
	0x3f6c7a2eeed7badc, 0x3f589833a890440f, 0x3f6787bb09a11298, 0x3f6044ef33a6f37e,
	0x3f7335714bf3d24a, 0x3f5b74912d0492f1, 0x3f6dbdcf6b832ea2, 0x3f6eb8da7714481d,
	0x3f5903372aea4e7f, 0x3f6027518c07c33c, 0x3f65e00a9299d664, 0x3f5d076198d96660,
	0x3f5db75a4de61f0a, 0x3f695f551aab9e01, 0x3f5c05d48f81ee1c, 0x3f60a84076656a1d,
	0x3f78dffa86a483b5, 0x3f64751c73d83c5e, 0x3f60eea4d63af340, 0x3f654f0f36c3d4d8,
	0x3f7267a206818b74, 0x3f5abee67efa9546, 0x3f6395d3532018b6, 0x3f612c2552fe87a6,
	0x3f64c5d11c9e5a28, 0x3f63f6c7971b7634, 0x3f6369233857f79e, 0x3f6b44a7ec0d2590,
	0x3f735e03e3eb357f, 0x3f571450c96fddbc, 0x3f57dd204840f295, 0x3f6a971fe5313420,
	0x3f62b1135bceed57, 0x3f6568722244a64b, 0x3f612646cafec486, 0x3f679dfc04a6339e,
	0x3f666f73a7e7172c, 0x3f6460bd7621340a, 0x3f5566ba708aef61, 0x3f65667fea35b86f,
	0x3f6141d51ec10462, 0x3f4da0440dfde815, 0x3f54dec8faec986d, 0x3f5b75b012ebfebc,
	0x3f6a849ac0f8705e, 0x3f6af6bfb9e6ab3f, 0x3f6a48fbbe51237d, 0x3f7b3b2921d0a68b,
	0x3f5c205193f093cd, 0x3f5f8199f66cc06a, 0x3f81c3f347594d31, 0x3f59312a8f126d7b,
	0x3f60f0fc2e586cca, 0x3f6d062bc011b75a, 0x3f772591686d98c5, 0x3f5ef5b6c32d38f1,
	0x3f67b331e487bdb0, 0x3f58279f4f419deb, 0x3f628dc19d8d1ed9, 0x3f646fc479ad3d74,
	0x3f60c4374d45bdc5, 0x3f4d51c9c0f14d73, 0x3f613cee857e0b6a, 0x3f66c5f3aef872da,
	0x3f61633850e2c9e1, 0x3f62101eea19be0e, 0x3f656df26af2d011, 0x3f63d5de89adfc96,
	0x3f6cfb16a3cba610, 0x3f628fd67d4db7c1, 0x3f7ab8d5be5600b8, 0x3f613bcf249e0499,
	0x3f49e2851dc4d003, 0x3f5b4a93c350848b, 0x3f5e20d0a5b383d5, 0x3f661b03b2e8addb,
	0x3f735dd7361d104c, 0x3f66645db01fbfef, 0x3f698c32f97dd395, 0x3f5ad087fed50f80,
	0x3f5c654e8e7ab0a6, 0x3f526f9b7d3dbb50, 0x3f5a425f7973e7ce, 0x3f69a486f163cbfc,
	0x3f526071c04e94b1, 0x3f658ad69ff4830f, 0x3f6a7e5a654cc7bd, 0x3f600b345c97c80c,
	0x3f6169483e7cfd0b, 0x3f7338ed83317145, 0x3f62e5bcb45101b4, 0x3f5bdec2185f0b5f,
	0x3f63eac6e508531b, 0x3f6a882764e28bf0, 0x3f75720289497a39, 0x3f720fdfac78a5b2,
	0x3f5b6d2d5b7f093d, 0x3f6699c1517e7923, 0x3f48caec81898327, 0x3f6ab6f06b1fcdc3,
	0x3f60526e6151dca2, 0x3f67947a512b978f, 0x3f61189441ec1ceb, 0x3f7668a04fe1f330,
	0x3f6b57bc3d0796e6, 0x3f68580e79e16095, 0x3f5c57eadb48b3b4, 0x3f5d4e0b21ee3657,
	0x3f572a617b1be2c1, 0x3f7016b9af09e0f0, 0x3f6eb3fb9573cc06, 0x3f67e04e67f4c4d0,
	0x3f632eda8d3bbc64, 0x3f6e7655b8841812, 0x3f6693a609dcf842, 0x3f66504cd230bb12,
	0x3f65f114955563a8, 0x3f5fd2415f4d1ea8, 0x3f5e15dceccff64a, 0x3f5707bc33fa5b5c,
	0x3f51eef7a31f8bb4, 0x3f710b8fb05be6b5, 0x3f5f5a1f9911eb92, 0x3f5d06687ff2c7c5,
	0x3f6fce99fd34d78f, 0x3f5ee8e06e17cb30, 0x3f60768f7badfe92, 0x3f63052a0481f829,
	0x3f69b3a28e9ea484, 0x3f69728e774b2e36, 0x3f6423113ac07085, 0x3f6b1332760683cb,
	0x3f7115684a474dba, 0x3f5abeb142b382de, 0x3f62b04c8083dc90, 0x3f63db634aef35fb,
	0x3f6387494a32fef6, 0x3f6a5785d4ebb89a, 0x3f581a672ebe40ec, 0x3f5672d1d56a0b88,
	0x3f605ed157b45b9c, 0x3f58a96c76de9921, 0x3f67222d525910ba, 0x3f69e788a3cc77e7,
	0x3f758b5c44c025f6, 0x3f6e3a39331784d6, 0x3f56e7208ce88675, 0x3f60a70d7fb776ee,
	0x3f623f5e39cd3bc3, 0x3f4a25a239da60ab, 0x3f6e7ee261b4a8c0, 0x3f59a8c1242d26a4,
	0x3f640ad31e4234d9, 0x3f5678030d6a896a, 0x3f667144dade3adc, 0x3f68a639fd7b2dd7,
	0x3f60a17522d5fedd, 0x3f797d4212fe049a, 0x3f63043e7d5a7b7f, 0x3f60a12c7c889082,
	0x3f6241e1dcaaa27b, 0x3f42a476b85dfaa9, 0x3f7582d9bf3cb159, 0x3f58e3aa1a2154df,
	0x3f585c508bd17f84, 0x3f71c91e74c8ba4b, 0x3f66c26943c58f93, 0x3f66cd2ccbe3bcd7,
	0x3f5b9594d6529719, 0x3f64d590b36f638a, 0x3f738a6deb7fd32c, 0x3f577f5bba3348a0,
	0x3f615402498563de, 0x3f53ed6f67ca5871, 0x3f6064d1f4d0d778, 0x3f7244640a53e630,
	0x3f6782657da7f454, 0x3f6c912eda6d5261, 0x3f5c4493578012fe, 0x3f5d57cee58b2bab,
	0x3f58426587212a3b, 0x3f525757534220e9, 0x3f5350bcad6e6917, 0x3f6a74e87101a4d6,
	0x3f69d1c5af00d763, 0x3f63c4ff9f600a9d, 0x3f577dbf0985cf78, 0x3f765c6527a6de99,
	0x3f6cad30e21d272c, 0x3f4d4952abf739d3, 0x3f56eb1e353934bf, 0x3f5ad70be6a9e29e,
	0x3f762da395a24f19, 0x3f63029a749e4f4f, 0x3f6f54cda490dc31, 0x3f55b8fffdf09dc6,
	0x3f83d2e7464303ff, 0x3f5e817698fff42a, 0x3f603986d9e51d69, 0x3f5c08be3a1fd124,
	0x3f601efab4a5d499, 0x3f4b7b45eed79fdc, 0x3f79f429c6d39be8, 0x3f60259d8653a259,
	0x3f5f828bd0c81116, 0x3f67750f8f79eb5d, 0x3f65669676d2ff7e, 0x3f5fe07695f00dd2,
	0x3f55dddd055101fe, 0x3f5da8619309be7c, 0x3f7202ef14368f39, 0x3f6de3d5fe306ee6,
	0x3f60e2f8c462c269, 0x3f6a1323c8012728, 0x3f53f34be387c550, 0x3f7fb4574bb3aad8,
	0x3f633194a161d3e0, 0x3f65ef8f8fdf74d7, 0x3f62fb2baf06b745, 0x3f565c87dbd54d8e,
	0x3f60c24c7a7c781c, 0x3f7cb74b64a049e1, 0x3f51352b99a0a201, 0x3f556293bbcb4c20,
	0x3f5c18dd2d81d5d7, 0x3f5854be7443ab31, 0x3f77583c6544a7da, 0x3f5f7695ecb7ab30,
	0x3f59f0e41a082e94, 0x3f665c31c42135f7, 0x3f621cc66d753163, 0x3f514b5e9033b96e,
	0x3f521907e4f92e83, 0x3f67a155fc2717d5, 0x3f63ac6ad509961c, 0x3f5f41543cf08d61,
	0x3f5b8e646328f0ac, 0x3f63413fb2959ee5, 0x3f66508f2683b623, 0x3f6d737527f5acff,
	0x3f5bc75c1be37800, 0x3f653184fe82e4a9, 0x3f716c50a1b606d4, 0x3f6497f23977067f,
	0x3f60a91ec5047c9e, 0x3f6145db9b55a977, 0x3f5b3f9c4fd97aa9, 0x3f76da0b05c9ca30,
	0x3f63969bc251aef5, 0x3f60fc3b018c186d, 0x3f606894eb4d7660, 0x3f6647eba00c1081,
	0x3f572117aa3ccfb0, 0x3f5a33f59b0ba3cb, 0x3f619824ef0bbdbd, 0x3f56acbbd5869af3,
	0x3f54172105d13184, 0x3f66b492574e9543, 0x3f66fa3295b6dcf8, 0x3f791458fe189bc8,
}
