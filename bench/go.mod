module asyncmediator/bench

go 1.22

require asyncmediator v0.0.0

replace asyncmediator => ../
