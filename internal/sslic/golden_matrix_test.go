package sslic

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"sslic/internal/dataset"
	"sslic/internal/imgio"
	"sslic/internal/slic"
)

// centersSHA256 hashes the IEEE-754 bits of every center field, so any
// drift in a center — not only in the labels it produces — shows.
func centersSHA256(cs []slic.Center) string {
	h := sha256.New()
	var buf [40]byte
	for _, c := range cs {
		for i, v := range [5]float64{c.L, c.A, c.B, c.X, c.Y} {
			binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
		}
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// goldenMatrixScenes returns two fixed-seed scenes: the frame every case
// segments, and a second frame the warm-start cases segment from the
// first frame's centers.
func goldenMatrixScenes(t *testing.T) (first, second *imgio.Image) {
	t.Helper()
	cfg := dataset.DefaultConfig()
	cfg.W, cfg.H = 96, 72
	cfg.Regions = 8
	a, err := dataset.Generate(cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := dataset.Generate(cfg, 8)
	if err != nil {
		t.Fatal(err)
	}
	return a.Image, b.Image
}

// goldenMatrixCase is one pinned configuration. warm marks a second
// frame seeded with the first frame's centers under the same params.
type goldenMatrixCase struct {
	name string
	p    Params
	warm bool
}

func goldenMatrixCases() []goldenMatrixCase {
	var cases []goldenMatrixCase
	for _, dp := range []DatapathKind{Float64, Fixed} {
		for _, scheme := range []Scheme{Interleaved, Rows, Blocks, Hashed} {
			for _, ratio := range []float64{1, 0.5, 0.25} {
				for _, preempt := range []bool{false, true} {
					for _, tw := range []int{1, 3} {
						p := DefaultParams(48, ratio)
						p.Datapath = dp
						p.Scheme = scheme
						p.Preemptive = preempt
						p.TileWorkers = tw
						cases = append(cases, goldenMatrixCase{
							name: fmt.Sprintf("%v/%v/r%g/preempt=%t/tw%d", dp, scheme, ratio, preempt, tw),
							p:    p,
						})
					}
				}
			}
		}
	}
	for _, dp := range []DatapathKind{Float64, Fixed} {
		p := DefaultParams(48, 0.5)
		p.Datapath = dp
		cases = append(cases, goldenMatrixCase{name: fmt.Sprintf("%v/warm", dp), p: p, warm: true})
	}
	quant := DefaultParams(48, 0.5)
	quant.Quantization = slic.NewDatapath(8)
	software := DefaultParams(48, 0.5)
	software.SoftwareCenterUpdate = true
	cpa := DefaultParams(48, 0.5)
	cpa.Arch = CPA
	return append(cases,
		goldenMatrixCase{name: "float64/quant8", p: quant},
		goldenMatrixCase{name: "float64/software-update", p: software},
		goldenMatrixCase{name: "cpa", p: cpa},
	)
}

// goldenMatrix pins {labels, centers} hashes per case. Float center
// hashes are pinned at TileWorkers=1 only: the float sigma merge order
// depends on the band count, so multi-band centers may differ in the
// last bits (labels do not). The empty centers entries mark those cases.
var goldenMatrix = map[string][2]string{
	"float64/interleaved/r1/preempt=false/tw1":    {"8da3bd878339764df596b841d0c89e7e2eb8be8b835a5f13b456d8f62fd5e510", "4bc68de78e90164f2d6d254c11c5149243f52b86abe0e81ed3de5593b96417e7"},
	"float64/interleaved/r1/preempt=false/tw3":    {"8da3bd878339764df596b841d0c89e7e2eb8be8b835a5f13b456d8f62fd5e510", ""},
	"float64/interleaved/r1/preempt=true/tw1":     {"e7c1cfe6abada54cf78fe004f7fcf5dc9b79b7f36ca29be0ce8a5ae997de1eee", "5501655aecf9c3fefba58bfec6f6ca00631c1ca37631c50d027d8f5a2fdf860d"},
	"float64/interleaved/r1/preempt=true/tw3":     {"e7c1cfe6abada54cf78fe004f7fcf5dc9b79b7f36ca29be0ce8a5ae997de1eee", ""},
	"float64/interleaved/r0.5/preempt=false/tw1":  {"2d67343b48f517a8624d9c6fdc1878347306c427ca6ade31fadff921c945faae", "b409cd58abf3da6503febbc9e76615521ead78b4d0c01450c1131923475c3142"},
	"float64/interleaved/r0.5/preempt=false/tw3":  {"2d67343b48f517a8624d9c6fdc1878347306c427ca6ade31fadff921c945faae", ""},
	"float64/interleaved/r0.5/preempt=true/tw1":   {"e2a0be5aae9eea81013189289c2291c7ebe300b58eb740d2aa4b0df3cabaf71f", "62446b3eed50c0c0fe18fb9b85c0304a2e06c46ade370047c1292fb08452988c"},
	"float64/interleaved/r0.5/preempt=true/tw3":   {"e2a0be5aae9eea81013189289c2291c7ebe300b58eb740d2aa4b0df3cabaf71f", ""},
	"float64/interleaved/r0.25/preempt=false/tw1": {"20e7f45dd1fb152b0adc7a71c946b3dff60564617d690ec8c05e3abc174ada79", "2d32fa3f53d044f1ea3d80091dce07174ff9fd3cbb72446651463e861f4e0099"},
	"float64/interleaved/r0.25/preempt=false/tw3": {"20e7f45dd1fb152b0adc7a71c946b3dff60564617d690ec8c05e3abc174ada79", ""},
	"float64/interleaved/r0.25/preempt=true/tw1":  {"f1e10c30cad327ace4b017a361e8c9b9435edaac3db6d80c4b51395956666636", "431d876cdd2cbd28f7b45f39914b559e97e98c5f66086a89098da7854ee78806"},
	"float64/interleaved/r0.25/preempt=true/tw3":  {"f1e10c30cad327ace4b017a361e8c9b9435edaac3db6d80c4b51395956666636", ""},
	"float64/rows/r1/preempt=false/tw1":           {"8da3bd878339764df596b841d0c89e7e2eb8be8b835a5f13b456d8f62fd5e510", "4bc68de78e90164f2d6d254c11c5149243f52b86abe0e81ed3de5593b96417e7"},
	"float64/rows/r1/preempt=false/tw3":           {"8da3bd878339764df596b841d0c89e7e2eb8be8b835a5f13b456d8f62fd5e510", ""},
	"float64/rows/r1/preempt=true/tw1":            {"e7c1cfe6abada54cf78fe004f7fcf5dc9b79b7f36ca29be0ce8a5ae997de1eee", "5501655aecf9c3fefba58bfec6f6ca00631c1ca37631c50d027d8f5a2fdf860d"},
	"float64/rows/r1/preempt=true/tw3":            {"e7c1cfe6abada54cf78fe004f7fcf5dc9b79b7f36ca29be0ce8a5ae997de1eee", ""},
	"float64/rows/r0.5/preempt=false/tw1":         {"67ee550395349d668cdf5d1cc276515596296e82b0b98aed1795e1cc66dfbe03", "1100a4eb71002d87e8020eb2f6393d2e6904a62f37f8452eeafb7a53326a8a8d"},
	"float64/rows/r0.5/preempt=false/tw3":         {"67ee550395349d668cdf5d1cc276515596296e82b0b98aed1795e1cc66dfbe03", ""},
	"float64/rows/r0.5/preempt=true/tw1":          {"600efc21d1c2337e8881af1b93dfb65cb507cac149ac381c84416938ee35d5a4", "3be68056b212b3b2bfb41bc367b587dc05272ddd873021fb8f6310e25b50c2ec"},
	"float64/rows/r0.5/preempt=true/tw3":          {"600efc21d1c2337e8881af1b93dfb65cb507cac149ac381c84416938ee35d5a4", ""},
	"float64/rows/r0.25/preempt=false/tw1":        {"c64312ff01e2444dc4828f342f6dfad80ef22f89882c3ba8ce17348c1177bafc", "a32063d43c4dc4b271f0c47b9133df13d2d56b9b275b49ba8ee07e7e2b8843a2"},
	"float64/rows/r0.25/preempt=false/tw3":        {"c64312ff01e2444dc4828f342f6dfad80ef22f89882c3ba8ce17348c1177bafc", ""},
	"float64/rows/r0.25/preempt=true/tw1":         {"a1b2542927e6f714ab1d29513759ae7252e372f7145b753fba65d78e491d2a59", "3522dffd824eb4c3fac21a5e85d0c689a7dda47347ff1d55fcad8149a9c86ab7"},
	"float64/rows/r0.25/preempt=true/tw3":         {"a1b2542927e6f714ab1d29513759ae7252e372f7145b753fba65d78e491d2a59", ""},
	"float64/blocks/r1/preempt=false/tw1":         {"8da3bd878339764df596b841d0c89e7e2eb8be8b835a5f13b456d8f62fd5e510", "4bc68de78e90164f2d6d254c11c5149243f52b86abe0e81ed3de5593b96417e7"},
	"float64/blocks/r1/preempt=false/tw3":         {"8da3bd878339764df596b841d0c89e7e2eb8be8b835a5f13b456d8f62fd5e510", ""},
	"float64/blocks/r1/preempt=true/tw1":          {"e7c1cfe6abada54cf78fe004f7fcf5dc9b79b7f36ca29be0ce8a5ae997de1eee", "5501655aecf9c3fefba58bfec6f6ca00631c1ca37631c50d027d8f5a2fdf860d"},
	"float64/blocks/r1/preempt=true/tw3":          {"e7c1cfe6abada54cf78fe004f7fcf5dc9b79b7f36ca29be0ce8a5ae997de1eee", ""},
	"float64/blocks/r0.5/preempt=false/tw1":       {"f8ae1cd0d4697e1e38a6f5d985804c10d27215be1a21f9c6cda1ea7006972208", "4cefadc6831d685399d9b9242a15a5deb9d64153bde9af6b1c4be9adbd4f8263"},
	"float64/blocks/r0.5/preempt=false/tw3":       {"f8ae1cd0d4697e1e38a6f5d985804c10d27215be1a21f9c6cda1ea7006972208", ""},
	"float64/blocks/r0.5/preempt=true/tw1":        {"685658722d8fae75531df0420ab5ddc23f24e56ebe08377c9d9f17a5080b7c51", "4ca7d50640834b8eeeed3f46fd3aa3d7afa5f782c89d216e66f903abb4027d46"},
	"float64/blocks/r0.5/preempt=true/tw3":        {"685658722d8fae75531df0420ab5ddc23f24e56ebe08377c9d9f17a5080b7c51", ""},
	"float64/blocks/r0.25/preempt=false/tw1":      {"85e84ef23f5a17f93826ca56574aa44c837072875ba1556e44738a4b1164bcf2", "673dd35cd680324ed90e8aba725b518fa2e4b812362ba26d5b3406edf398427f"},
	"float64/blocks/r0.25/preempt=false/tw3":      {"85e84ef23f5a17f93826ca56574aa44c837072875ba1556e44738a4b1164bcf2", ""},
	"float64/blocks/r0.25/preempt=true/tw1":       {"85e84ef23f5a17f93826ca56574aa44c837072875ba1556e44738a4b1164bcf2", "673dd35cd680324ed90e8aba725b518fa2e4b812362ba26d5b3406edf398427f"},
	"float64/blocks/r0.25/preempt=true/tw3":       {"85e84ef23f5a17f93826ca56574aa44c837072875ba1556e44738a4b1164bcf2", ""},
	"float64/hashed/r1/preempt=false/tw1":         {"8da3bd878339764df596b841d0c89e7e2eb8be8b835a5f13b456d8f62fd5e510", "4bc68de78e90164f2d6d254c11c5149243f52b86abe0e81ed3de5593b96417e7"},
	"float64/hashed/r1/preempt=false/tw3":         {"8da3bd878339764df596b841d0c89e7e2eb8be8b835a5f13b456d8f62fd5e510", ""},
	"float64/hashed/r1/preempt=true/tw1":          {"e7c1cfe6abada54cf78fe004f7fcf5dc9b79b7f36ca29be0ce8a5ae997de1eee", "5501655aecf9c3fefba58bfec6f6ca00631c1ca37631c50d027d8f5a2fdf860d"},
	"float64/hashed/r1/preempt=true/tw3":          {"e7c1cfe6abada54cf78fe004f7fcf5dc9b79b7f36ca29be0ce8a5ae997de1eee", ""},
	"float64/hashed/r0.5/preempt=false/tw1":       {"f83fb2920219c8358f2ea118285ccb90b6f2fcde48e952417a40baa9314e2d1f", "94003e47ee147e398725b7b0732e2deb896e82db42e91a4a50fdf15fc0fbbf01"},
	"float64/hashed/r0.5/preempt=false/tw3":       {"f83fb2920219c8358f2ea118285ccb90b6f2fcde48e952417a40baa9314e2d1f", ""},
	"float64/hashed/r0.5/preempt=true/tw1":        {"22ef7bc31001b621bbd549707abb9fc9068b874d9155f4926667c1ee25d4376c", "ebe3e54eaac7e2d6509526670b71c389e3265a1c8e19d498105415931f2a3f2a"},
	"float64/hashed/r0.5/preempt=true/tw3":        {"22ef7bc31001b621bbd549707abb9fc9068b874d9155f4926667c1ee25d4376c", ""},
	"float64/hashed/r0.25/preempt=false/tw1":      {"5ac1ceb2bb2e71c032dd69e1265b746decdf6575df20a5715cc5a39a805c89b7", "02dda2cf2c636f2f809295e64145fdb12665c18d3a3b6c85648a2c9fc9d8684c"},
	"float64/hashed/r0.25/preempt=false/tw3":      {"5ac1ceb2bb2e71c032dd69e1265b746decdf6575df20a5715cc5a39a805c89b7", ""},
	"float64/hashed/r0.25/preempt=true/tw1":       {"2e143a65b5538704695c21f17185008dbec65c634e4ef4cc269935a102d81419", "aaa50bb818a98fbb47f808f79395b8f87b3160434b3f99c8b23064860d6ce8cb"},
	"float64/hashed/r0.25/preempt=true/tw3":       {"2e143a65b5538704695c21f17185008dbec65c634e4ef4cc269935a102d81419", ""},
	"fixed/interleaved/r1/preempt=false/tw1":      {"43463c7603e98c608777801d07ba19d52eee63df79aa071b009a290dc3df190f", "55eaad7f0a6047ec34058a38323870bb6e71c3113deaf1af7a3a841c6cb140a0"},
	"fixed/interleaved/r1/preempt=false/tw3":      {"43463c7603e98c608777801d07ba19d52eee63df79aa071b009a290dc3df190f", "55eaad7f0a6047ec34058a38323870bb6e71c3113deaf1af7a3a841c6cb140a0"},
	"fixed/interleaved/r1/preempt=true/tw1":       {"6001a76ea204b23c46ec2a60bdd24ced9c5f940ef449b3708a65ccc1f29f9f90", "4cd0ecd6e55ebbe4c1836fdef591383e49a114566be77bfed7b019d5022c42b5"},
	"fixed/interleaved/r1/preempt=true/tw3":       {"6001a76ea204b23c46ec2a60bdd24ced9c5f940ef449b3708a65ccc1f29f9f90", "4cd0ecd6e55ebbe4c1836fdef591383e49a114566be77bfed7b019d5022c42b5"},
	"fixed/interleaved/r0.5/preempt=false/tw1":    {"7d7444a9bcc522b8dc3b65d2a5c281813fc5f62dfa12131ab71d310bb4bc32dd", "b2679d1a0a31fe0fff67111bd04bb9ea8e96ccaba4f28349fbc18d7b626bfee5"},
	"fixed/interleaved/r0.5/preempt=false/tw3":    {"7d7444a9bcc522b8dc3b65d2a5c281813fc5f62dfa12131ab71d310bb4bc32dd", "b2679d1a0a31fe0fff67111bd04bb9ea8e96ccaba4f28349fbc18d7b626bfee5"},
	"fixed/interleaved/r0.5/preempt=true/tw1":     {"4b4d288d85314dde16289a2d5e899dea5945a9275add357c263f9650c2b213da", "f3f54f3ae43596d1df3d6be347852364e2583f6efb334549580a3c788f180b20"},
	"fixed/interleaved/r0.5/preempt=true/tw3":     {"4b4d288d85314dde16289a2d5e899dea5945a9275add357c263f9650c2b213da", "f3f54f3ae43596d1df3d6be347852364e2583f6efb334549580a3c788f180b20"},
	"fixed/interleaved/r0.25/preempt=false/tw1":   {"401242ef484e96080b93d7759ff6549b15b94d7cc61933130c7fbdf88cc2292c", "f91c86636bc35126495e21ce8737189ba630db629271ddf1b205fbc27b0159bd"},
	"fixed/interleaved/r0.25/preempt=false/tw3":   {"401242ef484e96080b93d7759ff6549b15b94d7cc61933130c7fbdf88cc2292c", "f91c86636bc35126495e21ce8737189ba630db629271ddf1b205fbc27b0159bd"},
	"fixed/interleaved/r0.25/preempt=true/tw1":    {"c58eeba18d622628ac5bb3d427b16e7bc29701c6daa2610c09ca504505582ad7", "02ecb645f061a970de017ff78ea9ed6dfc6ff0d7e945d7d3e876a6d7fee1f0ca"},
	"fixed/interleaved/r0.25/preempt=true/tw3":    {"c58eeba18d622628ac5bb3d427b16e7bc29701c6daa2610c09ca504505582ad7", "02ecb645f061a970de017ff78ea9ed6dfc6ff0d7e945d7d3e876a6d7fee1f0ca"},
	"fixed/rows/r1/preempt=false/tw1":             {"43463c7603e98c608777801d07ba19d52eee63df79aa071b009a290dc3df190f", "55eaad7f0a6047ec34058a38323870bb6e71c3113deaf1af7a3a841c6cb140a0"},
	"fixed/rows/r1/preempt=false/tw3":             {"43463c7603e98c608777801d07ba19d52eee63df79aa071b009a290dc3df190f", "55eaad7f0a6047ec34058a38323870bb6e71c3113deaf1af7a3a841c6cb140a0"},
	"fixed/rows/r1/preempt=true/tw1":              {"6001a76ea204b23c46ec2a60bdd24ced9c5f940ef449b3708a65ccc1f29f9f90", "4cd0ecd6e55ebbe4c1836fdef591383e49a114566be77bfed7b019d5022c42b5"},
	"fixed/rows/r1/preempt=true/tw3":              {"6001a76ea204b23c46ec2a60bdd24ced9c5f940ef449b3708a65ccc1f29f9f90", "4cd0ecd6e55ebbe4c1836fdef591383e49a114566be77bfed7b019d5022c42b5"},
	"fixed/rows/r0.5/preempt=false/tw1":           {"535b191e3437038e6f473b403241e703919e820b3a965ae43974300e2e4174e0", "b252286ca949378743e8677123e118b4a5f08d835d66f34a844e92a2eccce226"},
	"fixed/rows/r0.5/preempt=false/tw3":           {"535b191e3437038e6f473b403241e703919e820b3a965ae43974300e2e4174e0", "b252286ca949378743e8677123e118b4a5f08d835d66f34a844e92a2eccce226"},
	"fixed/rows/r0.5/preempt=true/tw1":            {"888a49c6e9cefba07c8340349e9d0ccb9a61f21dfac62dfdfad3ece5858d51ad", "ab6f0bc1640820fe33cf960d0233d7166c3d2482fa660441ba03ed705e6f97e7"},
	"fixed/rows/r0.5/preempt=true/tw3":            {"888a49c6e9cefba07c8340349e9d0ccb9a61f21dfac62dfdfad3ece5858d51ad", "ab6f0bc1640820fe33cf960d0233d7166c3d2482fa660441ba03ed705e6f97e7"},
	"fixed/rows/r0.25/preempt=false/tw1":          {"c3a2e861a173e9a1948d82ceaa31d54e62b7abfcceb65d09f5c350e083f99a67", "d832ca2289d1ebbda91cd56789968237ba4eb8185850a233145e0a1cc6ad6dba"},
	"fixed/rows/r0.25/preempt=false/tw3":          {"c3a2e861a173e9a1948d82ceaa31d54e62b7abfcceb65d09f5c350e083f99a67", "d832ca2289d1ebbda91cd56789968237ba4eb8185850a233145e0a1cc6ad6dba"},
	"fixed/rows/r0.25/preempt=true/tw1":           {"bf4385c40808f278d7d53f6f038667f267749c69b1bcc43f3e4607090898f8f7", "c582d4137e725eac9d4b3304f915241e02ad01267c6a82337e04d7d76e2f437d"},
	"fixed/rows/r0.25/preempt=true/tw3":           {"bf4385c40808f278d7d53f6f038667f267749c69b1bcc43f3e4607090898f8f7", "c582d4137e725eac9d4b3304f915241e02ad01267c6a82337e04d7d76e2f437d"},
	"fixed/blocks/r1/preempt=false/tw1":           {"43463c7603e98c608777801d07ba19d52eee63df79aa071b009a290dc3df190f", "55eaad7f0a6047ec34058a38323870bb6e71c3113deaf1af7a3a841c6cb140a0"},
	"fixed/blocks/r1/preempt=false/tw3":           {"43463c7603e98c608777801d07ba19d52eee63df79aa071b009a290dc3df190f", "55eaad7f0a6047ec34058a38323870bb6e71c3113deaf1af7a3a841c6cb140a0"},
	"fixed/blocks/r1/preempt=true/tw1":            {"6001a76ea204b23c46ec2a60bdd24ced9c5f940ef449b3708a65ccc1f29f9f90", "4cd0ecd6e55ebbe4c1836fdef591383e49a114566be77bfed7b019d5022c42b5"},
	"fixed/blocks/r1/preempt=true/tw3":            {"6001a76ea204b23c46ec2a60bdd24ced9c5f940ef449b3708a65ccc1f29f9f90", "4cd0ecd6e55ebbe4c1836fdef591383e49a114566be77bfed7b019d5022c42b5"},
	"fixed/blocks/r0.5/preempt=false/tw1":         {"daf47a325ce9dad58f1fb2b84890a9966fbe7043875e76b48d50647c95832041", "3e8fc36337004bb16f1943211a720118ca693b884725f4b35ae250c439174ad2"},
	"fixed/blocks/r0.5/preempt=false/tw3":         {"daf47a325ce9dad58f1fb2b84890a9966fbe7043875e76b48d50647c95832041", "3e8fc36337004bb16f1943211a720118ca693b884725f4b35ae250c439174ad2"},
	"fixed/blocks/r0.5/preempt=true/tw1":          {"0817d9393b185e355630630194ae8fc12f7d4e77a4cff78ebc7dffc7fa93df4e", "ad43e454685266f601baf94af0074ac5c860c67b6ec01ae70830ba46c7ed3ab0"},
	"fixed/blocks/r0.5/preempt=true/tw3":          {"0817d9393b185e355630630194ae8fc12f7d4e77a4cff78ebc7dffc7fa93df4e", "ad43e454685266f601baf94af0074ac5c860c67b6ec01ae70830ba46c7ed3ab0"},
	"fixed/blocks/r0.25/preempt=false/tw1":        {"8b29ad84d3201211a7f48c899e4112b3ba76896f2220459524ec433c443e5a4a", "54f26604672696467d5cc2df3f47350d1eb1fe39c227ec24032002fa4003de9f"},
	"fixed/blocks/r0.25/preempt=false/tw3":        {"8b29ad84d3201211a7f48c899e4112b3ba76896f2220459524ec433c443e5a4a", "54f26604672696467d5cc2df3f47350d1eb1fe39c227ec24032002fa4003de9f"},
	"fixed/blocks/r0.25/preempt=true/tw1":         {"8b29ad84d3201211a7f48c899e4112b3ba76896f2220459524ec433c443e5a4a", "54f26604672696467d5cc2df3f47350d1eb1fe39c227ec24032002fa4003de9f"},
	"fixed/blocks/r0.25/preempt=true/tw3":         {"8b29ad84d3201211a7f48c899e4112b3ba76896f2220459524ec433c443e5a4a", "54f26604672696467d5cc2df3f47350d1eb1fe39c227ec24032002fa4003de9f"},
	"fixed/hashed/r1/preempt=false/tw1":           {"43463c7603e98c608777801d07ba19d52eee63df79aa071b009a290dc3df190f", "55eaad7f0a6047ec34058a38323870bb6e71c3113deaf1af7a3a841c6cb140a0"},
	"fixed/hashed/r1/preempt=false/tw3":           {"43463c7603e98c608777801d07ba19d52eee63df79aa071b009a290dc3df190f", "55eaad7f0a6047ec34058a38323870bb6e71c3113deaf1af7a3a841c6cb140a0"},
	"fixed/hashed/r1/preempt=true/tw1":            {"6001a76ea204b23c46ec2a60bdd24ced9c5f940ef449b3708a65ccc1f29f9f90", "4cd0ecd6e55ebbe4c1836fdef591383e49a114566be77bfed7b019d5022c42b5"},
	"fixed/hashed/r1/preempt=true/tw3":            {"6001a76ea204b23c46ec2a60bdd24ced9c5f940ef449b3708a65ccc1f29f9f90", "4cd0ecd6e55ebbe4c1836fdef591383e49a114566be77bfed7b019d5022c42b5"},
	"fixed/hashed/r0.5/preempt=false/tw1":         {"664151237760d8497addda16f26deaa1715c1101c06068481d544e6a2fca81db", "c132fa424bd5e4ab8dd820a708ee66786b872a94ed659909f3a65d55f55d24c6"},
	"fixed/hashed/r0.5/preempt=false/tw3":         {"664151237760d8497addda16f26deaa1715c1101c06068481d544e6a2fca81db", "c132fa424bd5e4ab8dd820a708ee66786b872a94ed659909f3a65d55f55d24c6"},
	"fixed/hashed/r0.5/preempt=true/tw1":          {"1e845a016c9cc2454f77798be07c77c993e10d06dfa9f1eef0885137689f949e", "7b3e3878fe387d8d082f976170204b6e51c54d8bfeb5c7b8830d99492d0c572e"},
	"fixed/hashed/r0.5/preempt=true/tw3":          {"1e845a016c9cc2454f77798be07c77c993e10d06dfa9f1eef0885137689f949e", "7b3e3878fe387d8d082f976170204b6e51c54d8bfeb5c7b8830d99492d0c572e"},
	"fixed/hashed/r0.25/preempt=false/tw1":        {"9e8f3045efc4e7377204bb34e6d0c2ab2fe66133f644f45f1b3e7f4812d0d7e8", "7b339c6d45dd7af6fe5709bb2098fbb43bd4e19d6aa32ca136ec780d584fdee9"},
	"fixed/hashed/r0.25/preempt=false/tw3":        {"9e8f3045efc4e7377204bb34e6d0c2ab2fe66133f644f45f1b3e7f4812d0d7e8", "7b339c6d45dd7af6fe5709bb2098fbb43bd4e19d6aa32ca136ec780d584fdee9"},
	"fixed/hashed/r0.25/preempt=true/tw1":         {"9e8f3045efc4e7377204bb34e6d0c2ab2fe66133f644f45f1b3e7f4812d0d7e8", "7b339c6d45dd7af6fe5709bb2098fbb43bd4e19d6aa32ca136ec780d584fdee9"},
	"fixed/hashed/r0.25/preempt=true/tw3":         {"9e8f3045efc4e7377204bb34e6d0c2ab2fe66133f644f45f1b3e7f4812d0d7e8", "7b339c6d45dd7af6fe5709bb2098fbb43bd4e19d6aa32ca136ec780d584fdee9"},
	"float64/warm":                                {"7f2f31f96250e6692a33acc07d5e5a19f85d7377153584ecc7a89fd78e2470e1", "8ef104cc80e161237f983ee4dc8854f472cbe6a1c95d381cc6ff017668ec4525"},
	"fixed/warm":                                  {"9fed52864aac397256ebccdb7282d9a5889e2db8dc14e3797d9e2e667eceacfb", "31d00ec0ecf5e17134955441581fb3e0a07cd25862ff39fc04a140b0993b73c7"},
	"float64/quant8":                              {"3393d99e0379d7c89c44884cf7f8a7e8308197f07c81dca5287f15d4037ba950", "58098d816cbaadd093112192337defc81b4b84bf53d74fdc7f589058c22c805d"},
	"float64/software-update":                     {"e31e79303451690104ad977fa208002393359de0dec92146bf0115e96cdf169c", "153cd8491412171163bdf35e4dc2a3338112c2cb5182905f052cf2ff7cab23b7"},
	"cpa":                                         {"d1cfc71559b446a94da7d281f4ca5116f98d14bcaa80823852df1318594f532e", "59662b44010604c5b475ad7238449c5ae882cae5f9ee76b3588c214512912a91"},
}

// TestGoldenMatrix pins the output of every engine, scheme, ratio,
// preemption and band-count combination, plus warm start, the quantized
// float datapath, the software center update and CPA, so a change to any
// one of them is caught, not only a change to DefaultParams.
func TestGoldenMatrix(t *testing.T) {
	first, second := goldenMatrixScenes(t)
	for _, c := range goldenMatrixCases() {
		r, err := Segment(first, c.p)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if c.warm {
			p := c.p
			p.InitialCenters = r.Centers
			if r, err = Segment(second, p); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
		}
		got := [2]string{labelsSHA256(r.Labels), centersSHA256(r.Centers)}
		if c.p.Datapath == Float64 && c.p.TileWorkers > 1 {
			got[1] = ""
		}
		want, ok := goldenMatrix[c.name]
		if !ok {
			t.Errorf("%q: {%q, %q}, not pinned", c.name, got[0], got[1])
			continue
		}
		if got != want {
			t.Errorf("%s: hashes %v, want %v", c.name, got, want)
		}
	}
}
