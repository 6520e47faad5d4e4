package exp

// Table1Row is one line of the paper's Table I: the qualitative
// comparison of deadlock-freedom solutions. Footnoted entries (7*) are
// rendered as false with the caveat recorded.
type Table1Row struct {
	Solution string
	// The eight columns of Table I.
	NoDetection       bool
	ProtocolFree      bool
	NetworkFree       bool
	FullPathDiversity bool
	HighThroughput    bool
	LowPower          bool
	Scalable          bool
	NoMisrouting      bool
	Caveats           string
}

// Table1 reproduces Table I verbatim.
func Table1() []Table1Row {
	return []Table1Row{
		{
			Solution:    "Turn Restrictions",
			NoDetection: true, ProtocolFree: false, NetworkFree: true,
			FullPathDiversity: false, HighThroughput: false, LowPower: false,
			Scalable: false, NoMisrouting: true,
			Caveats: "must use multiple VNs to avoid protocol-level deadlock; cannot support adaptive routing",
		},
		{
			Solution:    "Escape VCs",
			NoDetection: true, ProtocolFree: false, NetworkFree: true,
			FullPathDiversity: false, HighThroughput: false, LowPower: false,
			Scalable: true, NoMisrouting: true,
			Caveats: "must use multiple VNs; no full path diversity within the escape VC",
		},
		{
			Solution:    "Virtual Networks",
			NoDetection: true, ProtocolFree: true, NetworkFree: false,
			FullPathDiversity: false, HighThroughput: false, LowPower: false,
			Scalable: true, NoMisrouting: true,
			Caveats: "must use multiple VNs",
		},
		{
			Solution:    "SPIN",
			NoDetection: false, ProtocolFree: false, NetworkFree: true,
			FullPathDiversity: true, HighThroughput: false, LowPower: false,
			Scalable: false, NoMisrouting: true,
			Caveats: "must use multiple VNs; detection/resolution time grows with network size",
		},
		{
			Solution:    "SWAP",
			NoDetection: true, ProtocolFree: false, NetworkFree: true,
			FullPathDiversity: true, HighThroughput: false, LowPower: false,
			Scalable: true, NoMisrouting: false,
			Caveats: "must use multiple VNs",
		},
		{
			Solution:    "DRAIN",
			NoDetection: true, ProtocolFree: true, NetworkFree: true,
			FullPathDiversity: true, HighThroughput: false, LowPower: false,
			Scalable: false, NoMisrouting: false,
			Caveats: "can run without VNs only with large, non-minimal buffering; resolution time grows with network size",
		},
		{
			Solution:    "Pitstop",
			NoDetection: true, ProtocolFree: true, NetworkFree: true,
			FullPathDiversity: true, HighThroughput: false, LowPower: true,
			Scalable: false, NoMisrouting: true,
			Caveats: "resolution time grows with network size",
		},
		{
			Solution:    "FastPass",
			NoDetection: true, ProtocolFree: true, NetworkFree: true,
			FullPathDiversity: true, HighThroughput: true, LowPower: true,
			Scalable: true, NoMisrouting: true,
		},
	}
}
