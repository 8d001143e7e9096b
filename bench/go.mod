module mkse/bench

go 1.24

require mkse v0.0.0

replace mkse => ../
