package core

import (
	"fmt"

	"repro/internal/sim"
)

// WorkloadKind distinguishes the synthetic workloads of the study.
type WorkloadKind int

// Workload kinds. WLFixed is the special two-month experiment behind
// Figure 3b (N fixed to 10000 packets, L_S = L_R = 1691 bytes).
const (
	WLUnknown WorkloadKind = iota
	WLRandom
	WLRealistic
	WLFixed
)

// String names the workload kind.
func (w WorkloadKind) String() string {
	switch w {
	case WLRandom:
		return "random"
	case WLRealistic:
		return "realistic"
	case WLFixed:
		return "fixed"
	default:
		return fmt.Sprintf("WorkloadKind(%d)", int(w))
	}
}

// AppKind is the networked application emulated by the realistic workload
// during a cycle (Figure 3c's facets).
type AppKind int

// Emulated applications. AppNone marks random-workload cycles, which do not
// emulate a specific application.
const (
	AppNone AppKind = iota
	AppWeb
	AppMail
	AppFTP
	AppP2P
	AppStreaming

	numApps
)

// Apps lists the realistic applications in the paper's Figure 3c order.
func Apps() []AppKind { return []AppKind{AppWeb, AppMail, AppFTP, AppP2P, AppStreaming} }

// String names the application.
func (a AppKind) String() string {
	switch a {
	case AppNone:
		return "none"
	case AppWeb:
		return "Web"
	case AppMail:
		return "Mail"
	case AppFTP:
		return "FTP"
	case AppP2P:
		return "P2P"
	case AppStreaming:
		return "Streaming"
	default:
		return fmt.Sprintf("AppKind(%d)", int(a))
	}
}

// PacketType is a Bluetooth baseband ACL data packet type. DMx packets carry
// 2/3-rate shortened Hamming FEC; DHx packets are uncoded. The x is the
// number of consecutive 625 us slots occupied (1, 3, or 5).
type PacketType int

// Baseband ACL packet types, in Figure 3a's axis order.
const (
	PTUnknown PacketType = iota
	PTDM1
	PTDH1
	PTDM3
	PTDH3
	PTDM5
	PTDH5

	numPacketTypes
)

// NumPacketTypes bounds the PacketType values; dense per-type counters use
// it as their array length so the per-packet hot path avoids map operations.
const NumPacketTypes = int(numPacketTypes)

// PacketTypes lists the six ACL data packet types.
func PacketTypes() []PacketType {
	return []PacketType{PTDM1, PTDH1, PTDM3, PTDH3, PTDM5, PTDH5}
}

// Valid reports whether p names one of the six ACL data packet types.
//
// Test oracle: workload's TestClientReportsPacketLoss.
func (p PacketType) Valid() bool { return p > PTUnknown && p < numPacketTypes }

// String names the packet type.
func (p PacketType) String() string {
	switch p {
	case PTDM1:
		return "DM1"
	case PTDH1:
		return "DH1"
	case PTDM3:
		return "DM3"
	case PTDH3:
		return "DH3"
	case PTDM5:
		return "DM5"
	case PTDH5:
		return "DH5"
	default:
		return fmt.Sprintf("PacketType(%d)", int(p))
	}
}

// Slots reports the number of baseband slots the packet occupies.
func (p PacketType) Slots() int {
	switch p {
	case PTDM1, PTDH1:
		return 1
	case PTDM3, PTDH3:
		return 3
	case PTDM5, PTDH5:
		return 5
	default:
		return 0
	}
}

// FEC reports whether the payload is protected by the shortened Hamming
// (15,10) forward error correction code (DMx types).
func (p PacketType) FEC() bool {
	switch p {
	case PTDM1, PTDM3, PTDM5:
		return true
	default:
		return false
	}
}

// Payload reports the maximum user payload in bytes, per the Bluetooth 1.1
// baseband specification.
func (p PacketType) Payload() int {
	switch p {
	case PTDM1:
		return 17
	case PTDH1:
		return 27
	case PTDM3:
		return 121
	case PTDH3:
		return 183
	case PTDM5:
		return 224
	case PTDH5:
		return 339
	default:
		return 0
	}
}

// RecoveryAction enumerates the Software-Implemented Recovery Actions
// (SIRAs) in cascade order. The ordinal doubles as the failure severity:
// a failure cleared by action j has severity j.
type RecoveryAction int

// SIRAs, ordered by increasing cost (recovery time).
const (
	RANone RecoveryAction = iota
	RAIPSocketReset
	RABTConnectionReset
	RABTStackReset
	RAAppRestart
	RAMultiAppRestart
	RASystemReboot
	RAMultiSystemReboot

	numRecoveryActions
)

// RecoveryActions lists the SIRAs in cascade order.
func RecoveryActions() []RecoveryAction {
	out := make([]RecoveryAction, 0, numRecoveryActions-1)
	for a := RAIPSocketReset; a < numRecoveryActions; a++ {
		out = append(out, a)
	}
	return out
}

// NumRecoveryActions is the number of defined SIRAs.
const NumRecoveryActions = int(numRecoveryActions) - 1

// String names the SIRA as in Table 3.
func (a RecoveryAction) String() string {
	switch a {
	case RANone:
		return "none"
	case RAIPSocketReset:
		return "IP socket reset"
	case RABTConnectionReset:
		return "BT connection reset"
	case RABTStackReset:
		return "BT stack reset"
	case RAAppRestart:
		return "Application restart"
	case RAMultiAppRestart:
		return "Multiple app restart"
	case RASystemReboot:
		return "System reboot"
	case RAMultiSystemReboot:
		return "Multiple sys reboot"
	default:
		return fmt.Sprintf("RecoveryAction(%d)", int(a))
	}
}

// Valid reports whether a names a defined SIRA.
func (a RecoveryAction) Valid() bool { return a >= RAIPSocketReset && a < numRecoveryActions }

// UserReport is one user-level failure report, as written to the Test Log
// by the instrumented BlueTest workload ("High Level Data" in the paper).
type UserReport struct {
	At sim.Time `json:"at"`

	Testbed string `json:"testbed"` // "random" or "realistic" testbed
	Node    string `json:"node"`    // host name, per the paper's Table 1

	Failure UserFailure `json:"failure"`

	// Node status at the moment of failure, per the paper's report fields.
	Workload   WorkloadKind   `json:"workload"`
	App        AppKind        `json:"app,omitempty"`
	Packet     PacketType     `json:"packet,omitempty"`
	SentPkts   int            `json:"sent_pkts"`        // packets sent on the connection before the failure
	RecvdPkts  int            `json:"recvd_pkts"`       // packets received before the failure
	CycleIdx   int            `json:"cycle_idx"`        // cycle number on the current connection (realistic WL)
	SDPFlag    bool           `json:"sdp_flag"`         // was the SDP search performed this cycle?
	ScanFlag   bool           `json:"scan_flag"`        // was inquiry/scan performed this cycle?
	DistanceM  float64        `json:"distance_m"`       // PANU antenna distance from the NAP
	IdleBefore sim.Time       `json:"idle_before"`      // idle time preceding the failing cycle
	ConnID     uint64         `json:"conn_id"`          // identifies the PAN connection instance
	Masked     bool           `json:"masked,omitempty"` // suppressed by an error-masking strategy (not a user-visible failure)
	Recovered  bool           `json:"recovered"`        // did some recovery action eventually succeed?
	Recovery   RecoveryAction `json:"recovery"`         // the SIRA that cleared it (RANone if none/NA)
	TTR        sim.Time       `json:"ttr"`              // time to recover

	// Taxonomy tags, assigned once when the report is created (workload
	// tagging) so every aggregation plane sees the same classification.
	// Both are zero on records from pre-taxonomy producers (codec v1).
	Phase   FailurePhase      `json:"phase,omitempty"`   // protocol phase the failure struck
	Verdict TransienceVerdict `json:"verdict,omitempty"` // windowed-recurrence transience verdict
}

// SystemEntry is one system-level failure entry, as registered by system
// software in the OS system log ("Low Level Data" in the paper). System
// entries act as errors for user-level failures.
type SystemEntry struct {
	At sim.Time `json:"at"`

	Testbed string    `json:"testbed"`
	Node    string    `json:"node"` // node whose system log recorded the entry
	Source  SysSource `json:"source"`
	Code    ErrorCode `json:"code"`
	Detail  string    `json:"detail,omitempty"` // free-form daemon message

	// ConnID links the entry to a PAN connection instance when the
	// component knows it (0 otherwise).
	ConnID uint64 `json:"conn_id,omitempty"`
}
