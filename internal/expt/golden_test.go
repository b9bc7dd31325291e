package expt

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// goldenDigests pins the rendered output of every registry experiment
// on a 6-workload stratified sample at 20k instructions: the SHA-256 of
// Result.String(). A refactor of the run plumbing must reproduce every
// figure byte for byte; a change that is meant to move a number updates
// the digest and says why.
var goldenDigests = map[string]string{
	"tableiv":     "c39f8e7cb9a6c9bfef787a82ddccf25840d73022085d455036e8e42995787b7e",
	"tablev":      "ffbe8fb5a7d0fd50aa81f49d876ef46e057d9b80df7e0d1e326209bb47dedf00",
	"tablevi":     "b950a5874f02c9c4c134338cdad120ef3fa284ffee7308da222cd656e47ff95b",
	"fig2":        "f3542b6d8a4a41ee266b49b14e81ab2ba0ad1226cda14a80e4afceb8fa2bd094",
	"fig3":        "a5db27c72c4379118256f6e6eff52d166d8c0da3df9b30f3bd0132b13a9c640b",
	"fig4":        "3e23bdd436046afb759d625abc018d7d399bde9fae8d3e1b28ed25daaadd1fa6",
	"fig5":        "64125c965dadcc6b2bbbb1d7486e0b45df23a61e1f44f1cb3c334d499dd99184",
	"fig6":        "9c209674f6fa96f40d0cefca19386adf7316ceaba6747edf62bfddabbaac8717",
	"fig7":        "056b9d09516f2bf1e5ca4cf95e758d28b35b8c9d1439e6209a9743afd6d15032",
	"fig8":        "cbb0f9a1043609a42625764e3d25a6d2be431a3b3957cfa5f84528e4d52515e5",
	"fig9":        "7c136a05ab605d592ee033b26cf96d494264f43572806731b6dd644a4072cb41",
	"fig10":       "eb509be5dc31523d18fada80753d1d007a780277f6242d6497e01687ccea6538",
	"fig11":       "47136f136a10685dfb72d0c8493ec597d0ebff636f6c59a8b803beed7996935d",
	"fig12":       "dc22fee1658c7eb7752b6e9d02b9677b8a2bf878a01c768f83996a3d7f78d091",
	"ablations":   "242d06097469cec0e0683087ad42f2322f678cde17817597d07d890821b8a988",
	"sharedpool":  "f5fa03cf53e92bf956644e07d9b3e29adcb73221ae5c1792ed4f8b4e347ae2e2",
	"vpsec":       "bb283267bea5928b4eb68c329600709e09205f8cb5decf9da364b9ad1b0c358e",
	"windowsweep": "93a39492f0bf24ce5afc5e815a59d9589a44ef8430270f1d3049dc80d5f6e2bb",
}

// TestExperimentOutputsUnchanged runs every registry experiment on one
// Context and compares each rendered result with its recorded digest,
// printing the text on a mismatch.
func TestExperimentOutputsUnchanged(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	ctx := NewContext(Options{Insts: 20_000, Workloads: sampleNames(6)})
	for _, e := range Registry() {
		text := e.Run(ctx).String()
		sum := sha256.Sum256([]byte(text))
		got := hex.EncodeToString(sum[:])
		if want := goldenDigests[e.ID]; got != want {
			t.Errorf("%s: output digest %s, want %s; rendered:\n%s", e.ID, got, want, text)
		}
	}
}
