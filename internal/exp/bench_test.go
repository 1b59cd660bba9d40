package exp

import "testing"

func TestAblationDNFDeterministic(t *testing.T) {
	_, d1 := AblationDNF(10)
	_, d2 := AblationDNF(10)
	if d1.String() != d2.String() {
		t.Errorf("AblationDNF not deterministic:\n%s\n%s", d1, d2)
	}
}
