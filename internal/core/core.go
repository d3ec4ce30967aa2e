// Package core defines the Bluetooth PAN failure model of Cinque, Cotroneo
// and Russo (DSN 2006): the user-level and system-level failure taxonomies of
// the paper's Table 1, the failure-report record types produced by the
// workload and by system software, and the recovery-action (SIRA) catalogue.
//
// Every other package in the reproduction speaks these types: the protocol
// stack and fault injectors emit SystemEntry records, the BlueTest workload
// emits UserReport records, the collector ships both to the repository, and
// the coalescence/analysis pipeline turns them into the paper's tables.
package core

import "fmt"

// UserFailure enumerates the user-level failure types of Table 1 (left
// side): the failure as it manifests to a real user of a PANU device.
type UserFailure int

// User-level failure types, grouped by the utilisation phase in which they
// manifest (searching, connecting, transferring data).
const (
	UFUnknown UserFailure = iota

	// Search group.
	UFInquiryScanFailed // the inquiry procedure terminates abnormally
	UFNAPNotFound       // SDP does not find the NAP even though it is present
	UFSDPSearchFailed   // the SDP search procedure terminates abnormally

	// Connect group.
	UFConnectFailed           // L2CAP connection to the NAP fails
	UFPANConnectFailed        // PANU fails to establish the PAN connection
	UFBindFailed              // IP socket cannot bind the BNEP interface
	UFSwitchRoleRequestFailed // switch-role request never reaches the master
	UFSwitchRoleCommandFailed // request succeeds but command completes abnormally

	// Data-transfer group.
	UFPacketLoss   // an expected packet is lost (30 s timeout expires)
	UFDataMismatch // packet received, content corrupted (CRC escape)

	numUserFailures
)

// UserFailures lists all user-level failure types in taxonomy order.
func UserFailures() []UserFailure {
	out := make([]UserFailure, 0, numUserFailures-1)
	for f := UFInquiryScanFailed; f < numUserFailures; f++ {
		out = append(out, f)
	}
	return out
}

var userFailureNames = map[UserFailure]string{
	UFUnknown:                 "Unknown",
	UFInquiryScanFailed:       "Inquiry/scan failed",
	UFNAPNotFound:             "NAP not found",
	UFSDPSearchFailed:         "SDP search failed",
	UFConnectFailed:           "Connect failed",
	UFPANConnectFailed:        "PAN connect failed",
	UFBindFailed:              "Bind failed",
	UFSwitchRoleRequestFailed: "Sw role request failed",
	UFSwitchRoleCommandFailed: "Sw role command failed",
	UFPacketLoss:              "Packet loss",
	UFDataMismatch:            "Data mismatch",
}

// String returns the paper's name for the failure type.
func (f UserFailure) String() string {
	if s, ok := userFailureNames[f]; ok {
		return s
	}
	return fmt.Sprintf("UserFailure(%d)", int(f))
}

// Valid reports whether f is a defined failure type (not UFUnknown).
//
// Test oracle: testbed's TestReportsCarryFullContext.
func (f UserFailure) Valid() bool { return f > UFUnknown && f < numUserFailures }

// FailurePhase is the protocol phase a user-level failure struck, the
// finer-grained classification production failure-data pipelines layer on
// top of Table 1's three utilisation groups: device discovery, service
// probing (SDP), link/connection opening, data sending, and established-
// session management. PhaseUnknown is the zero value carried by records
// produced before the taxonomy plane existed (binary codec v1 frames).
type FailurePhase int

// Protocol phases, in pipeline order.
const (
	PhaseUnknown FailurePhase = iota
	PhaseDiscovery
	PhaseProbe
	PhaseOpen
	PhaseSend
	PhaseSession

	numFailurePhases
)

// NumFailurePhases is the number of defined protocol phases.
const NumFailurePhases = int(numFailurePhases) - 1

// FailurePhases lists all defined phases in pipeline order.
func FailurePhases() []FailurePhase {
	out := make([]FailurePhase, 0, NumFailurePhases)
	for p := PhaseDiscovery; p < numFailurePhases; p++ {
		out = append(out, p)
	}
	return out
}

var failurePhaseNames = map[FailurePhase]string{
	PhaseUnknown:   "unknown",
	PhaseDiscovery: "discovery",
	PhaseProbe:     "probe",
	PhaseOpen:      "open",
	PhaseSend:      "send",
	PhaseSession:   "session",
}

// String names the phase.
func (p FailurePhase) String() string {
	if s, ok := failurePhaseNames[p]; ok {
		return s
	}
	return fmt.Sprintf("FailurePhase(%d)", int(p))
}

// Phase classifies the failure by the protocol phase it struck. The mapping
// refines Table 1's groups: the Search group splits into discovery (inquiry)
// and probe (SDP), the Connect group into open (link/PAN/BNEP setup) and
// session (role switching on an established link), and the Data group is the
// send phase.
func (f UserFailure) Phase() FailurePhase {
	switch f {
	case UFInquiryScanFailed:
		return PhaseDiscovery
	case UFNAPNotFound, UFSDPSearchFailed:
		return PhaseProbe
	case UFConnectFailed, UFPANConnectFailed, UFBindFailed:
		return PhaseOpen
	case UFSwitchRoleRequestFailed, UFSwitchRoleCommandFailed:
		return PhaseSession
	case UFPacketLoss, UFDataMismatch:
		return PhaseSend
	default:
		return PhaseUnknown
	}
}

// TransienceVerdict records whether a failure looked like a one-off
// transient or part of a dynamic-availability episode — a recurrence of the
// same protocol phase on the same node within the recurrence window,
// indicating the node is oscillating in and out of service rather than
// suffering isolated glitches. The verdict is decided once, at collection
// time, by the windowed recurrence rule (see workload tagging), so every
// aggregation plane sees the same classification. VerdictUnknown is the
// zero value of untagged (pre-taxonomy) records.
type TransienceVerdict int

// Transience verdicts.
const (
	VerdictUnknown TransienceVerdict = iota
	VerdictTransient
	VerdictDynamicAvailability

	numTransienceVerdicts
)

// NumTransienceVerdicts is the number of defined verdicts.
const NumTransienceVerdicts = int(numTransienceVerdicts) - 1

// String names the verdict.
func (v TransienceVerdict) String() string {
	switch v {
	case VerdictTransient:
		return "transient"
	case VerdictDynamicAvailability:
		return "dynamic-availability"
	case VerdictUnknown:
		return "unknown"
	default:
		return fmt.Sprintf("TransienceVerdict(%d)", int(v))
	}
}

// SysSource enumerates the system-level failure locations of Table 1 (right
// side): the component that signalled the failure.
type SysSource int

// System-level failure sources. HCI..BCSP are BT-stack related; USB and
// Hotplug are OS/driver related.
const (
	SrcUnknown SysSource = iota
	SrcHCI               // HCI command timeouts / unknown handles
	SrcL2CAP             // unexpected start/continuation frames
	SrcSDP               // SDP daemon refused / timed out / service missing
	SrcBNEP              // bnep module/interface errors
	SrcBCSP              // out-of-order or missing BCSP packets
	SrcUSB               // USB device refuses new addresses
	SrcHotplug           // HAL daemon times out waiting for a hotplug event

	numSysSources
)

// SysSources lists all system-level sources in the paper's column order for
// Table 2: HCI, L2CAP, SDP, BCSP, BNEP, USB, HOTPLUG.
func SysSources() []SysSource {
	return []SysSource{SrcHCI, SrcL2CAP, SrcSDP, SrcBCSP, SrcBNEP, SrcUSB, SrcHotplug}
}

var sysSourceNames = map[SysSource]string{
	SrcUnknown: "UNKNOWN",
	SrcHCI:     "HCI",
	SrcL2CAP:   "L2CAP",
	SrcSDP:     "SDP",
	SrcBNEP:    "BNEP",
	SrcBCSP:    "BCSP",
	SrcUSB:     "USB",
	SrcHotplug: "HOTPLUG",
}

// String names the source as in the paper's tables.
func (s SysSource) String() string {
	if n, ok := sysSourceNames[s]; ok {
		return n
	}
	return fmt.Sprintf("SysSource(%d)", int(s))
}

// Valid reports whether s is a defined source.
//
// Test oracle: testbed's TestSystemEntriesAttributable.
func (s SysSource) Valid() bool { return s > SrcUnknown && s < numSysSources }

// ErrorCode refines a SysSource into the specific observed error of Table 1.
type ErrorCode int

// Observed system-level error codes, per Table 1's "observed errors" column.
const (
	CodeUnknown ErrorCode = iota

	// HCI.
	CodeHCICommandTimeout // timeout transmitting the command to the firmware
	CodeHCIInvalidHandle  // command for unknown connection handle

	// L2CAP.
	CodeL2CAPUnexpectedFrame // unexpected start or continuation frames

	// SDP.
	CodeSDPConnectionRefused // connection with the SDP server refused
	CodeSDPTimeout           // SDP request timed out
	CodeSDPServiceMissing    // AP not implementing the required service (though it does)

	// BNEP.
	CodeBNEPModuleMissing // can't locate module bnep0
	CodeBNEPOccupied      // bnep occupied
	CodeBNEPAddFailed     // failed to add a connection

	// BCSP.
	CodeBCSPOutOfOrder // out-of-order BCSP packets
	CodeBCSPMissing    // missing BCSP packets

	// USB.
	CodeUSBAddressStall // device does not accept new addresses

	// Hotplug.
	CodeHotplugTimeout // HAL daemon timed out waiting for a hotplug event
)

var errorCodeInfo = map[ErrorCode]struct {
	src SysSource
	msg string
}{
	CodeHCICommandTimeout:    {SrcHCI, "timeout in the transmission of the command to the BT firmware"},
	CodeHCIInvalidHandle:     {SrcHCI, "command for unknown connection handle"},
	CodeL2CAPUnexpectedFrame: {SrcL2CAP, "unexpected start or continuation frames received"},
	CodeSDPConnectionRefused: {SrcSDP, "connection with the SDP server refused"},
	CodeSDPTimeout:           {SrcSDP, "connection with the SDP server timed out"},
	CodeSDPServiceMissing:    {SrcSDP, "AP not implementing the required service"},
	CodeBNEPModuleMissing:    {SrcBNEP, "can't locate module bnep0"},
	CodeBNEPOccupied:         {SrcBNEP, "bnep occupied"},
	CodeBNEPAddFailed:        {SrcBNEP, "failed to add a connection"},
	CodeBCSPOutOfOrder:       {SrcBCSP, "out of order BCSP packets"},
	CodeBCSPMissing:          {SrcBCSP, "missing BCSP packets"},
	CodeUSBAddressStall:      {SrcUSB, "USB device does not accept new addresses"},
	CodeHotplugTimeout:       {SrcHotplug, "HAL daemon timed out waiting for hotplug event"},
}

// Source reports which component signals this error code.
func (c ErrorCode) Source() SysSource {
	if info, ok := errorCodeInfo[c]; ok {
		return info.src
	}
	return SrcUnknown
}

// Message renders the paper-style log message for the code.
func (c ErrorCode) Message() string {
	if info, ok := errorCodeInfo[c]; ok {
		return info.msg
	}
	return "unknown error"
}

// String names the code for diagnostics.
func (c ErrorCode) String() string {
	switch c {
	case CodeHCICommandTimeout:
		return "HCI_CMD_TIMEOUT"
	case CodeHCIInvalidHandle:
		return "HCI_INVALID_HANDLE"
	case CodeL2CAPUnexpectedFrame:
		return "L2CAP_UNEXPECTED_FRAME"
	case CodeSDPConnectionRefused:
		return "SDP_REFUSED"
	case CodeSDPTimeout:
		return "SDP_TIMEOUT"
	case CodeSDPServiceMissing:
		return "SDP_SERVICE_MISSING"
	case CodeBNEPModuleMissing:
		return "BNEP_MODULE_MISSING"
	case CodeBNEPOccupied:
		return "BNEP_OCCUPIED"
	case CodeBNEPAddFailed:
		return "BNEP_ADD_FAILED"
	case CodeBCSPOutOfOrder:
		return "BCSP_OUT_OF_ORDER"
	case CodeBCSPMissing:
		return "BCSP_MISSING"
	case CodeUSBAddressStall:
		return "USB_ADDRESS_STALL"
	case CodeHotplugTimeout:
		return "HOTPLUG_TIMEOUT"
	default:
		return fmt.Sprintf("ErrorCode(%d)", int(c))
	}
}

// SimError is the error type raised by simulated stack layers. It carries
// the taxonomy code so that callers (the workload's failure detector) can
// classify without string matching.
type SimError struct {
	Code ErrorCode
	Op   string // the API the caller invoked, e.g. "l2cap.connect"
	Node string // node on which the error was raised
}

// Error implements the error interface.
func (e *SimError) Error() string {
	return fmt.Sprintf("%s: %s (%s on %s)", e.Code.Source(), e.Code.Message(), e.Op, e.Node)
}

// NewSimError builds a SimError.
func NewSimError(code ErrorCode, op, node string) *SimError {
	return &SimError{Code: code, Op: op, Node: node}
}
