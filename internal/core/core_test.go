package core

import (
	"encoding/json"
	"testing"

	"repro/internal/sim"
)

func TestUserFailureTaxonomy(t *testing.T) {
	all := UserFailures()
	if len(all) != 10 {
		t.Errorf("taxonomy has %d user failures, paper's Table 1 has 10", len(all))
	}
	seen := map[string]bool{}
	for _, f := range all {
		if !f.Valid() {
			t.Errorf("%v not valid", f)
		}
		name := f.String()
		if seen[name] {
			t.Errorf("duplicate name %q", name)
		}
		seen[name] = true
	}
	if UFUnknown.Valid() {
		t.Error("UFUnknown should be invalid")
	}
}

func TestSysSourceTaxonomy(t *testing.T) {
	all := SysSources()
	if len(all) != 7 {
		t.Fatalf("SysSources() = %d entries, want 7", len(all))
	}
	for _, s := range all {
		if !s.Valid() {
			t.Errorf("%v not valid", s)
		}
	}
}

func TestErrorCodes(t *testing.T) {
	tests := []struct {
		code ErrorCode
		src  SysSource
	}{
		{CodeHCICommandTimeout, SrcHCI},
		{CodeHCIInvalidHandle, SrcHCI},
		{CodeL2CAPUnexpectedFrame, SrcL2CAP},
		{CodeSDPConnectionRefused, SrcSDP},
		{CodeSDPTimeout, SrcSDP},
		{CodeSDPServiceMissing, SrcSDP},
		{CodeBNEPModuleMissing, SrcBNEP},
		{CodeBNEPOccupied, SrcBNEP},
		{CodeBNEPAddFailed, SrcBNEP},
		{CodeBCSPOutOfOrder, SrcBCSP},
		{CodeBCSPMissing, SrcBCSP},
		{CodeUSBAddressStall, SrcUSB},
		{CodeHotplugTimeout, SrcHotplug},
	}
	for _, tt := range tests {
		if got := tt.code.Source(); got != tt.src {
			t.Errorf("%v.Source() = %v, want %v", tt.code, got, tt.src)
		}
		if tt.code.Message() == "unknown error" {
			t.Errorf("%v has no message", tt.code)
		}
	}
	if CodeUnknown.Source() != SrcUnknown {
		t.Error("CodeUnknown should map to SrcUnknown")
	}
}

func TestSimError(t *testing.T) {
	err := NewSimError(CodeHCICommandTimeout, "hci.switch_role", "Ipaq")
	msg := err.Error()
	for _, want := range []string{"HCI", "hci.switch_role", "Ipaq"} {
		if !contains(msg, want) {
			t.Errorf("error %q missing %q", msg, want)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (func() bool {
		for i := 0; i+len(sub) <= len(s); i++ {
			if s[i:i+len(sub)] == sub {
				return true
			}
		}
		return false
	})()
}

func TestPacketTypes(t *testing.T) {
	all := PacketTypes()
	if len(all) != 6 {
		t.Fatalf("%d packet types, want 6", len(all))
	}
	payloads := map[PacketType]int{
		PTDM1: 17, PTDH1: 27, PTDM3: 121, PTDH3: 183, PTDM5: 224, PTDH5: 339,
	}
	slots := map[PacketType]int{
		PTDM1: 1, PTDH1: 1, PTDM3: 3, PTDH3: 3, PTDM5: 5, PTDH5: 5,
	}
	for _, p := range all {
		if got := p.Payload(); got != payloads[p] {
			t.Errorf("%v.Payload() = %d, want %d", p, got, payloads[p])
		}
		if got := p.Slots(); got != slots[p] {
			t.Errorf("%v.Slots() = %d, want %d", p, got, slots[p])
		}
	}
	for _, p := range []PacketType{PTDM1, PTDM3, PTDM5} {
		if !p.FEC() {
			t.Errorf("%v should be FEC coded", p)
		}
	}
	for _, p := range []PacketType{PTDH1, PTDH3, PTDH5} {
		if p.FEC() {
			t.Errorf("%v should be uncoded", p)
		}
	}
}

func TestRecoveryActions(t *testing.T) {
	all := RecoveryActions()
	if len(all) != NumRecoveryActions || len(all) != 7 {
		t.Fatalf("%d SIRAs, want 7", len(all))
	}
	for i, a := range all {
		if !a.Valid() {
			t.Errorf("%v invalid", a)
		}
		if int(a) != i+1 {
			t.Errorf("SIRA %v has ordinal %d, want %d (severity ordering)", a, int(a), i+1)
		}
	}
	if RANone.Valid() {
		t.Error("RANone should be invalid")
	}
	if RAIPSocketReset.String() != "IP socket reset" {
		t.Errorf("unexpected SIRA name %q", RAIPSocketReset)
	}
}

func TestRecordsJSONRoundTrip(t *testing.T) {
	in := UserReport{
		At:        12 * sim.Hour,
		Testbed:   "random",
		Node:      "Verde",
		Failure:   UFPacketLoss,
		Workload:  WLRandom,
		Packet:    PTDM1,
		SentPkts:  42,
		SDPFlag:   true,
		DistanceM: 5,
		ConnID:    7,
		Recovered: true,
		Recovery:  RABTConnectionReset,
		TTR:       2 * sim.Second,
	}
	blob, err := json.Marshal(&in)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var out UserReport
	if err := json.Unmarshal(blob, &out); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if out != in {
		t.Errorf("round trip mismatch:\n in=%+v\nout=%+v", in, out)
	}

	se := SystemEntry{At: sim.Hour, Testbed: "random", Node: "Giallo",
		Source: SrcHCI, Code: CodeHCICommandTimeout, ConnID: 7}
	blob, err = json.Marshal(&se)
	if err != nil {
		t.Fatalf("marshal sys: %v", err)
	}
	var se2 SystemEntry
	if err := json.Unmarshal(blob, &se2); err != nil {
		t.Fatalf("unmarshal sys: %v", err)
	}
	if se2 != se {
		t.Errorf("system entry round trip mismatch: %+v vs %+v", se, se2)
	}
}

func TestWorkloadAndAppNames(t *testing.T) {
	if WLRandom.String() != "random" || WLRealistic.String() != "realistic" || WLFixed.String() != "fixed" {
		t.Error("workload names changed")
	}
	apps := Apps()
	if len(apps) != 5 {
		t.Fatalf("%d apps, want 5", len(apps))
	}
	want := []string{"Web", "Mail", "FTP", "P2P", "Streaming"}
	for i, a := range apps {
		if a.String() != want[i] {
			t.Errorf("app %d = %q, want %q", i, a, want[i])
		}
	}
}
