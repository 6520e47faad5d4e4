package workload

import "testing"

func TestRegistryComplete(t *testing.T) {
	for _, n := range Names() {
		a, err := Get(n)
		if err != nil {
			t.Fatal(err)
		}
		if a.Name != n {
			t.Errorf("app %q has mismatched name %q", n, a.Name)
		}
		if a.Profile.IssueRate <= 0 || a.Profile.IssueRate > 0.2 {
			t.Errorf("%s: implausible issue rate %v", n, a.Profile.IssueRate)
		}
		if a.WorkQuota <= 0 {
			t.Errorf("%s: no work quota", n)
		}
		frac := a.Profile.FwdFraction + a.Profile.InvFraction
		if frac < 0 || frac > 1 {
			t.Errorf("%s: flow fractions sum to %v", n, frac)
		}
	}
}

func TestAppNames(t *testing.T) {
	names := Names()
	if len(names) != 8 {
		t.Fatalf("expected 8 app profiles, got %v", names)
	}
	if _, err := Get("NotAnApp"); err == nil {
		t.Error("unknown app accepted")
	}
}

func TestGetUnknown(t *testing.T) {
	if _, err := Get("Doom"); err == nil {
		t.Fatal("unknown app accepted")
	}
}

func TestMustGetPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustGet("Doom")
}

func TestFigureAppSetsRegistered(t *testing.T) {
	for _, n := range append(Fig10Apps(), Fig13Apps()...) {
		if _, err := Get(n); err != nil {
			t.Errorf("figure app %q not registered", n)
		}
	}
	if len(Fig10Apps()) != 7 {
		t.Errorf("Fig. 10 uses 7 apps, have %d", len(Fig10Apps()))
	}
	if len(Fig13Apps()) != 5 {
		t.Errorf("Fig. 13(b) uses 5 apps, have %d", len(Fig13Apps()))
	}
}

func TestProfilesAreDistinct(t *testing.T) {
	seen := map[float64]string{}
	for _, n := range Names() {
		a := MustGet(n)
		key := a.Profile.IssueRate*1e6 + a.Profile.FwdFraction*1e3 + a.Profile.InvFraction
		if prev, dup := seen[key]; dup {
			t.Errorf("%s and %s share a profile", n, prev)
		}
		seen[key] = n
	}
}
