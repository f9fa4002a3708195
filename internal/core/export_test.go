package core

// Helpers shared with the external test package core_test, whose tests
// drive a machine together with its report model (report imports core, so
// those tests cannot live inside the package).
var (
	Build               = build
	EventsEqual         = eventsEqual
	RandomByteAutomaton = randomByteAutomaton
	WorkloadMachine     = workloadMachine
)
