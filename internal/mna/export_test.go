package mna

// NumDeviceKinds is the number of device kinds the core implements.
const NumDeviceKinds = int(numDeviceKinds)

// DeviceKindCounts reports how many devices of each kind c holds, indexed
// by kind.
func DeviceKindCounts(c *Circuit) []int {
	n := make([]int, numDeviceKinds)
	for _, d := range c.devices {
		n[d.kind]++
	}
	return n
}
