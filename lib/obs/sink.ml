let flag = Atomic.make false
let enabled () = Atomic.get flag
let enable () = Atomic.set flag true
let disable () = Atomic.set flag false
