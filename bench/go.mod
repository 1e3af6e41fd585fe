module hybridstitch/bench

go 1.22

require hybridstitch v0.0.0

replace hybridstitch => ../
