#pragma once

/// \file sink.h
/// Kept for benchmark/vifibench.cc, which includes it: the recorder's
/// writer is SpoolWriter (spool.h), also spelled StreamSink there.

#include "obs/spool.h"
