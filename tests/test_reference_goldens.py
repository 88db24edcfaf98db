"""Full-outcome goldens for the message-level reference engine.

Every protocol that runs on :class:`~repro.sim.engine.Engine` is pinned
against adversaries that split deliveries (``random``,
``tally-split-only``, ``anti-beacon``, ``benor-quorum``) under every
fault model (``crash``, ``send-omission``, ``receive-omission``,
``late`` with lag 1), so receivers of one round see different inboxes.
The goldens were captured on the engine that built one inbox per
receiver by testing every (sender, receiver) pair; the engine that
shares one inbox per distinct delivery must reproduce them exactly.

Each golden row is ``[seed, rounds, decision_round, crashes, decision,
[agreement, validity, termination, verdict decision]]`` for trials 0
and 1 at ``base_seed=11``, with n from 5 to 48.  One combination has
no golden: benor against benor-quorum under receive-omission exceeds
its budget at every size tried.  ``ERRORS`` pins configurations that stop
with a :class:`~repro.errors.ProtocolViolationError`: its message names
the first receiver, in pid order, to see a stray ``DET`` message.
"""

import re

import pytest

from repro.errors import ProtocolViolationError
from repro.harness.exec.spec import TrialSpec, spec_params
from repro.harness.exec.trial import run_spec_trial

BASE_SEED = 11

# (protocol, adversary, fault model, n, t, inputs) -> rows
GOLDENS = {
    ('synran', 'random', 'crash', 5, 2, 'worst'): [
        [6563965658257591029, 7, 6, 2, 0, [True, True, True, 0]],
        [4995072323737950933, 11, 10, 2, 0, [True, True, True, 0]],
    ],
    ('synran', 'random', 'send-omission', 12, 12, 'half'): [
        [432484046033365230, 5, 4, 0, 1, [True, True, True, 1]],
        [1101504390558338195, 3, 2, 0, 0, [True, True, True, 0]],
    ],
    ('synran', 'random', 'receive-omission', 24, 24, 'random'): [
        [3657318737810767851, 9, 8, 0, 0, [True, True, True, 0]],
        [6720105857471171115, 3, 2, 0, 0, [True, True, True, 0]],
    ],
    ('synran', 'random', 'late', 5, 5, 'worst'): [
        [7050119663455335741, 9, 8, 3, 1, [True, True, True, 1]],
        [5876037015064830434, 6, 5, 2, 0, [True, True, True, 0]],
    ],
    ('synran', 'tally-split-only', 'crash', 12, 6, 'half'): [
        [6845699472825247972, 6, 5, 1, 0, [True, True, True, 0]],
        [2804878830320311854, 3, 2, 0, 0, [True, True, True, 0]],
    ],
    ('synran', 'tally-split-only', 'send-omission', 24, 24, 'random'): [
        [2886898765113322372, 3, 2, 0, 0, [True, True, True, 0]],
        [8635668277022920, 2, 1, 0, 0, [True, True, True, 0]],
    ],
    ('synran', 'tally-split-only', 'receive-omission', 48, 24, 'worst'): [
        [2810449879507102682, 4, 3, 0, 0, [True, True, True, 0]],
        [4130617439165607869, 5, 4, 0, 0, [True, True, True, 0]],
    ],
    ('synran', 'tally-split-only', 'late', 5, 5, 'half'): [
        [3287284959481881438, 6, 5, 1, 1, [True, True, True, 1]],
        [2145326752056351331, 4, 3, 0, 0, [True, True, True, 0]],
    ],
    ('synran', 'anti-beacon', 'crash', 24, 12, 'random'): [
        [8949686155715384190, 19, 18, 12, 0, [True, True, True, 0]],
        [5054025162993267434, 18, 17, 12, 0, [True, True, True, 0]],
    ],
    ('synran', 'anti-beacon', 'send-omission', 48, 48, 'worst'): [
        [6773160061530870500, 61, 60, 0, 0, [True, True, True, 0]],
        [8543250770927105774, 62, 61, 0, 0, [True, True, True, 0]],
    ],
    ('synran', 'anti-beacon', 'receive-omission', 5, 5, 'half'): [
        [1882951177533201607, 19, 18, 0, 0, [True, True, True, 0]],
        [1630090381106986636, 9, 8, 0, None, [False, True, True, None]],
    ],
    ('synran', 'anti-beacon', 'late', 12, 12, 'random'): [
        [7976289137583866470, 3, 2, 1, 0, [True, True, True, 0]],
        [4950522400726288269, 4, 3, 0, 0, [True, True, True, 0]],
    ],
    ('synran', 'benor-quorum', 'crash', 48, 24, 'worst'): [
        [105954029991807395, 4, 3, 0, 0, [True, True, True, 0]],
        [7968148185527291771, 6, 5, 0, 0, [True, True, True, 0]],
    ],
    ('synran', 'benor-quorum', 'send-omission', 5, 5, 'half'): [
        [2490630196083383918, 3, 2, 0, 1, [True, True, True, 1]],
        [448659243378567748, 3, 2, 0, 0, [True, True, True, 0]],
    ],
    ('synran', 'benor-quorum', 'receive-omission', 12, 6, 'random'): [
        [4004516928071975590, 3, 2, 0, 1, [True, True, True, 1]],
        [7580371081170527673, 2, 1, 0, 0, [True, True, True, 0]],
    ],
    ('synran', 'benor-quorum', 'late', 24, 24, 'worst'): [
        [7953558180095128257, 6, 5, 0, 0, [True, True, True, 0]],
        [3122013511320159227, 4, 3, 0, 1, [True, True, True, 1]],
    ],
    ('symmetric-ran', 'random', 'crash', 5, 2, 'half'): [
        [5284947363844281786, 8, 7, 2, 0, [True, True, True, 0]],
        [6376242029810386728, 7, 6, 2, 0, [True, True, True, 0]],
    ],
    ('symmetric-ran', 'random', 'send-omission', 12, 12, 'random'): [
        [6628297641039929773, 4, 3, 0, 1, [True, True, True, 1]],
        [8076728511301178933, 15, 14, 0, 0, [True, True, True, 0]],
    ],
    ('symmetric-ran', 'random', 'receive-omission', 24, 24, 'worst'): [
        [411493860718806827, 4, 3, 0, 0, [True, True, True, 0]],
        [2399603800919007934, 4, 3, 0, 0, [True, True, True, 0]],
    ],
    ('symmetric-ran', 'random', 'late', 5, 5, 'half'): [
        [7999799548678359928, 4, 3, 0, 0, [True, True, True, 0]],
        [7560157656090729761, 7, 6, 1, 0, [True, True, True, 0]],
    ],
    ('symmetric-ran', 'tally-split-only', 'crash', 12, 6, 'random'): [
        [2825198464450587669, 3, 2, 0, 0, [True, True, True, 0]],
        [6606836756415176109, 3, 2, 0, 0, [True, True, True, 0]],
    ],
    ('symmetric-ran', 'tally-split-only', 'send-omission', 24, 24, 'worst'): [
        [816691212527740412, 4, 3, 0, 0, [True, True, True, 0]],
        [4064348440179847234, 4, 3, 0, 0, [True, True, True, 0]],
    ],
    ('symmetric-ran', 'tally-split-only', 'receive-omission', 48, 24, 'half'): [
        [6487324930522709281, 4, 3, 0, 0, [True, True, True, 0]],
        [6857860281200488171, 4, 3, 0, 0, [True, True, True, 0]],
    ],
    ('symmetric-ran', 'tally-split-only', 'late', 5, 5, 'random'): [
        [8167138758473833633, 4, 3, 1, 1, [True, True, True, 1]],
        [5687223500234122207, 3, 2, 0, 0, [True, True, True, 0]],
    ],
    ('symmetric-ran', 'anti-beacon', 'crash', 24, 12, 'worst'): [
        [113730316636371421, 18, 17, 11, 0, [True, True, True, 0]],
        [1741750559227701882, 19, 18, 12, 0, [True, True, True, 0]],
    ],
    ('symmetric-ran', 'anti-beacon', 'send-omission', 48, 48, 'half'): [
        [8315188754146929257, 64, 63, 0, 0, [True, True, True, 0]],
        [5718168625689471650, 64, 63, 0, 0, [True, True, True, 0]],
    ],
    ('symmetric-ran', 'anti-beacon', 'receive-omission', 5, 5, 'random'): [
        [1969895574033188324, 17, 16, 0, 0, [True, True, True, 0]],
        [8507961214718250019, 18, 17, 0, 0, [True, True, True, 0]],
    ],
    ('symmetric-ran', 'anti-beacon', 'late', 12, 12, 'worst'): [
        [5960258347415164227, 5, 4, 0, 0, [True, True, True, 0]],
        [9156121015074466014, 3, 2, 0, 0, [True, True, True, 0]],
    ],
    ('symmetric-ran', 'benor-quorum', 'crash', 48, 24, 'half'): [
        [7805495729045535413, 4, 3, 0, 0, [True, True, True, 0]],
        [8605054362037156142, 5, 4, 0, 0, [True, True, True, 0]],
    ],
    ('symmetric-ran', 'benor-quorum', 'send-omission', 5, 5, 'random'): [
        [9023575655169624738, 4, 3, 0, 0, [True, True, True, 0]],
        [2104720947988846093, 2, 1, 0, 0, [True, True, True, 0]],
    ],
    ('symmetric-ran', 'benor-quorum', 'receive-omission', 12, 6, 'worst'): [
        [5125579594512525500, 3, 2, 0, 1, [True, True, True, 1]],
        [4377680555296408443, 3, 2, 0, 0, [True, True, True, 0]],
    ],
    ('symmetric-ran', 'benor-quorum', 'late', 24, 24, 'half'): [
        [3032029057109988371, 5, 4, 0, 0, [True, True, True, 0]],
        [1300050506830443926, 11, 10, 0, 0, [True, True, True, 0]],
    ],
    ('beacon-ran', 'random', 'crash', 5, 2, 'random'): [
        [5125540464351427160, 6, 5, 2, 1, [True, True, True, 1]],
        [6960069273602642704, 6, 5, 2, 0, [True, True, True, 0]],
    ],
    ('beacon-ran', 'random', 'send-omission', 12, 12, 'worst'): [
        [4694493252581519112, 4, 3, 0, 1, [True, True, True, 1]],
        [8809443437332696859, 4, 3, 0, 0, [True, True, True, 0]],
    ],
    ('beacon-ran', 'random', 'receive-omission', 24, 24, 'half'): [
        [483613926541566513, 3, 2, 0, 1, [True, True, True, 1]],
        [1245393412964534513, 3, 2, 0, 0, [True, True, True, 0]],
    ],
    ('beacon-ran', 'random', 'late', 5, 5, 'random'): [
        [8464310187698971465, 9, 8, 5, None, [True, True, True, None]],
        [6979215577516222219, 4, 3, 2, 0, [True, True, True, 0]],
    ],
    ('beacon-ran', 'tally-split-only', 'crash', 12, 6, 'worst'): [
        [471575983705814481, 3, 2, 0, 0, [True, True, True, 0]],
        [7493461735927045488, 3, 2, 0, 0, [True, True, True, 0]],
    ],
    ('beacon-ran', 'tally-split-only', 'send-omission', 24, 24, 'half'): [
        [5231941876753210476, 3, 2, 0, 0, [True, True, True, 0]],
        [7369220925839940654, 3, 2, 0, 0, [True, True, True, 0]],
    ],
    ('beacon-ran', 'tally-split-only', 'receive-omission', 48, 24, 'random'): [
        [7606269474879412902, 3, 2, 0, 1, [True, True, True, 1]],
        [160280228191573590, 3, 2, 0, 1, [True, True, True, 1]],
    ],
    ('beacon-ran', 'tally-split-only', 'late', 5, 5, 'worst'): [
        [1586499849967281505, 3, 2, 0, 1, [True, True, True, 1]],
        [6993438633430472050, 3, 2, 0, 0, [True, True, True, 0]],
    ],
    ('beacon-ran', 'anti-beacon', 'crash', 24, 12, 'half'): [
        [5297636948324617433, 7, 6, 12, 0, [True, True, True, 0]],
        [8316351444348051508, 6, 5, 12, 0, [True, True, True, 0]],
    ],
    ('beacon-ran', 'anti-beacon', 'send-omission', 48, 48, 'random'): [
        [2455304872860606154, 7, 6, 0, 0, [True, True, True, 0]],
        [8727047150595463310, 9, 8, 0, 0, [True, True, True, 0]],
    ],
    ('beacon-ran', 'anti-beacon', 'receive-omission', 5, 5, 'worst'): [
        [7781329741164700233, 6, 5, 0, 0, [True, True, True, 0]],
        [8171877716931497084, 6, 5, 0, 0, [True, True, True, 0]],
    ],
    ('beacon-ran', 'anti-beacon', 'late', 12, 12, 'half'): [
        [4370361441709788138, 5, 4, 12, None, [True, True, True, None]],
        [1263122619262941873, 4, 3, 12, None, [True, True, True, None]],
    ],
    ('beacon-ran', 'benor-quorum', 'crash', 48, 24, 'random'): [
        [2400111065454368365, 3, 2, 0, 0, [True, True, True, 0]],
        [998613884759708478, 3, 2, 0, 1, [True, True, True, 1]],
    ],
    ('beacon-ran', 'benor-quorum', 'send-omission', 5, 5, 'worst'): [
        [6770794427180882150, 3, 2, 0, 1, [True, True, True, 1]],
        [3302186480273694994, 3, 2, 0, 0, [True, True, True, 0]],
    ],
    ('beacon-ran', 'benor-quorum', 'receive-omission', 12, 6, 'half'): [
        [5005715502861487523, 3, 2, 0, 1, [True, True, True, 1]],
        [645404951606876497, 3, 2, 0, 0, [True, True, True, 0]],
    ],
    ('beacon-ran', 'benor-quorum', 'late', 24, 24, 'random'): [
        [4326412585886692286, 3, 2, 0, 0, [True, True, True, 0]],
        [2605433715893701720, 2, 1, 0, 0, [True, True, True, 0]],
    ],
    ('benor', 'random', 'crash', 5, 1, 'worst'): [
        [8223387075326636472, 4, 1, 1, 1, [True, True, True, 1]],
        [5871823842353393106, 6, 3, 1, 1, [True, True, True, 1]],
    ],
    ('benor', 'random', 'send-omission', 12, 5, 'half'): [
        [3393484018667598423, 8, 5, 0, 1, [True, True, True, 1]],
        [4527624044331796958, 6, 3, 0, 0, [True, True, True, 0]],
    ],
    ('benor', 'random', 'receive-omission', 5, 2, 'random'): [
        [385602100018425386, 4, 1, 0, 1, [True, True, True, 1]],
        [5385366367627839010, 4, 1, 0, 1, [True, True, True, 1]],
    ],
    ('benor', 'random', 'late', 5, 2, 'worst'): [
        [2104085821023719590, 18, 15, 2, 1, [True, True, True, 1]],
        [481184351398826173, 6, 3, 1, 1, [True, True, True, 1]],
    ],
    ('benor', 'tally-split-only', 'crash', 12, 3, 'half'): [
        [931839889387049912, 8, 5, 0, 1, [True, True, True, 1]],
        [6363836421109776234, 8, 5, 0, 1, [True, True, True, 1]],
    ],
    ('benor', 'tally-split-only', 'send-omission', 24, 11, 'random'): [
        [5857787990536743122, 6, 3, 0, 0, [True, True, True, 0]],
        [8680831351694607083, 4, 1, 0, 0, [True, True, True, 0]],
    ],
    ('benor', 'tally-split-only', 'receive-omission', 48, 12, 'worst'): [
        [6094683466690212322, 4, 1, 0, 1, [True, True, True, 1]],
        [4220180336818262112, 4, 1, 0, 1, [True, True, True, 1]],
    ],
    ('benor', 'tally-split-only', 'late', 5, 2, 'half'): [
        [3094669089571527381, 4, 1, 0, 1, [True, True, True, 1]],
        [6157319741214090436, 4, 1, 0, 1, [True, True, True, 1]],
    ],
    ('benor', 'anti-beacon', 'crash', 24, 6, 'random'): [
        [4731667177754873114, 4, 1, 0, 1, [True, True, True, 1]],
        [8404083472292414343, 4, 1, 0, 1, [True, True, True, 1]],
    ],
    ('benor', 'anti-beacon', 'send-omission', 48, 23, 'worst'): [
        [5418352010732240393, 4, 1, 0, 1, [True, True, True, 1]],
        [2915016511747302535, 4, 1, 0, 1, [True, True, True, 1]],
    ],
    ('benor', 'anti-beacon', 'receive-omission', 5, 1, 'half'): [
        [2371390665141060932, 4, 1, 0, 1, [True, True, True, 1]],
        [2563776534853276778, 4, 1, 0, 1, [True, True, True, 1]],
    ],
    ('benor', 'anti-beacon', 'late', 12, 5, 'random'): [
        [1003442738150756169, 4, 1, 0, 0, [True, True, True, 0]],
        [181331138018701728, 4, 1, 0, 0, [True, True, True, 0]],
    ],
    ('benor', 'benor-quorum', 'crash', 48, 12, 'worst'): [
        [7511088205704878136, 20, 17, 9, 0, [True, True, True, 0]],
        [5707927636972841058, 152, 149, 11, 0, [True, True, True, 0]],
    ],
    ('benor', 'benor-quorum', 'send-omission', 5, 2, 'half'): [
        [7912960580536315768, 6, 3, 0, 1, [True, True, True, 1]],
        [294296174999755388, 6, 3, 0, 0, [True, True, True, 0]],
    ],
    ('benor', 'benor-quorum', 'late', 24, 11, 'worst'): [
        [2640436097612587234, 8, 5, 4, 1, [True, True, True, 1]],
        [2182152091904503617, 6, 3, 3, 0, [True, True, True, 0]],
    ],
    ('floodset', 'random', 'crash', 5, 2, 'half'): [
        [7510470252485696479, 3, 2, 2, 0, [True, True, True, 0]],
        [2632645171023752526, 3, 2, 1, 0, [True, True, True, 0]],
    ],
    ('floodset', 'random', 'send-omission', 12, 12, 'random'): [
        [6409573256596453166, 13, 12, 0, 0, [True, True, True, 0]],
        [8771502490422333598, 13, 12, 0, 0, [True, True, True, 0]],
    ],
    ('floodset', 'random', 'receive-omission', 24, 24, 'worst'): [
        [8837082136971434100, 25, 24, 0, 0, [True, True, True, 0]],
        [6566079433318936203, 25, 24, 0, 0, [True, True, True, 0]],
    ],
    ('floodset', 'random', 'late', 5, 5, 'half'): [
        [6316873723229682485, 6, 5, 3, 0, [True, True, True, 0]],
        [7453707310522676642, 6, 5, 3, 0, [True, True, True, 0]],
    ],
    ('floodset', 'tally-split-only', 'crash', 12, 6, 'random'): [
        [971454821805689966, 7, 6, 0, 0, [True, True, True, 0]],
        [3239845220222992942, 7, 6, 0, 0, [True, True, True, 0]],
    ],
    ('floodset', 'tally-split-only', 'send-omission', 24, 24, 'worst'): [
        [3128032474845559185, 25, 24, 0, 0, [True, True, True, 0]],
        [8878829319569893159, 25, 24, 0, 0, [True, True, True, 0]],
    ],
    ('floodset', 'tally-split-only', 'receive-omission', 48, 24, 'half'): [
        [6424788158147096735, 25, 24, 0, 0, [True, True, True, 0]],
        [196427952314698023, 25, 24, 0, 0, [True, True, True, 0]],
    ],
    ('floodset', 'tally-split-only', 'late', 5, 5, 'random'): [
        [759417039265702244, 6, 5, 0, 0, [True, True, True, 0]],
        [4569313099941652317, 6, 5, 0, 0, [True, True, True, 0]],
    ],
    ('floodset', 'anti-beacon', 'crash', 24, 12, 'worst'): [
        [3716614935825486129, 13, 12, 0, 0, [True, True, True, 0]],
        [8515492320252939614, 13, 12, 0, 0, [True, True, True, 0]],
    ],
    ('floodset', 'anti-beacon', 'send-omission', 48, 48, 'half'): [
        [3969728834782592819, 49, 48, 0, 0, [True, True, True, 0]],
        [2782836321888192011, 49, 48, 0, 0, [True, True, True, 0]],
    ],
    ('floodset', 'anti-beacon', 'receive-omission', 5, 2, 'random'): [
        [5856425602981708630, 3, 2, 0, 0, [True, True, True, 0]],
        [7539751422732315131, 3, 2, 0, 0, [True, True, True, 0]],
    ],
    ('floodset', 'anti-beacon', 'late', 12, 12, 'worst'): [
        [1619500818107414335, 13, 12, 0, 0, [True, True, True, 0]],
        [4676314854502823193, 13, 12, 0, 0, [True, True, True, 0]],
    ],
    ('floodset', 'benor-quorum', 'crash', 48, 24, 'half'): [
        [6538164130684927323, 25, 24, 0, 0, [True, True, True, 0]],
        [7289959986531374581, 25, 24, 0, 0, [True, True, True, 0]],
    ],
    ('floodset', 'benor-quorum', 'send-omission', 5, 5, 'random'): [
        [4917374921116332180, 6, 5, 0, 0, [True, True, True, 0]],
        [2027603520250187071, 6, 5, 0, 0, [True, True, True, 0]],
    ],
    ('floodset', 'benor-quorum', 'receive-omission', 12, 6, 'worst'): [
        [7355112543310958599, 7, 6, 0, 0, [True, True, True, 0]],
        [4971501551629173957, 7, 6, 0, 0, [True, True, True, 0]],
    ],
    ('floodset', 'benor-quorum', 'late', 24, 24, 'half'): [
        [5643614978591512330, 25, 24, 0, 0, [True, True, True, 0]],
        [8112822541519507433, 25, 24, 0, 0, [True, True, True, 0]],
    ],
    ('gp-hybrid', 'random', 'crash', 5, 2, 'random'): [
        [5665715052293994871, 4, 3, 1, 0, [True, True, True, 0]],
        [3862955205488261543, 6, 5, 2, 0, [True, True, True, 0]],
    ],
    ('gp-hybrid', 'random', 'send-omission', 12, 12, 'worst'): [
        [1294538432417880172, 3, 2, 0, 0, [True, True, True, 0]],
        [435531984090016751, 7, 6, 0, 1, [True, True, True, 1]],
    ],
    ('gp-hybrid', 'random', 'receive-omission', 24, 24, 'half'): [
        [8600449773770127839, 3, 2, 0, 0, [True, True, True, 0]],
        [7191665438436218495, 6, 5, 0, 0, [True, True, True, 0]],
    ],
    ('gp-hybrid', 'random', 'late', 5, 5, 'random'): [
        [8522168252266990083, 7, 6, 2, 1, [True, True, True, 1]],
        [4608619553991541711, 6, 5, 3, 0, [True, True, True, 0]],
    ],
    ('gp-hybrid', 'tally-split-only', 'crash', 12, 6, 'worst'): [
        [49874295635995681, 3, 2, 0, 0, [True, True, True, 0]],
        [2526556895723105541, 3, 2, 0, 0, [True, True, True, 0]],
    ],
    ('gp-hybrid', 'tally-split-only', 'send-omission', 24, 24, 'half'): [
        [8279462228880291738, 8, 7, 0, 0, [True, True, True, 0]],
        [6330378324704035419, 7, 6, 0, 0, [True, True, True, 0]],
    ],
    ('gp-hybrid', 'tally-split-only', 'receive-omission', 48, 48, 'random'): [
        [6076351804111085563, 2, 1, 0, 0, [True, True, True, 0]],
        [752855152920236135, 2, 1, 0, 0, [True, True, True, 0]],
    ],
    ('gp-hybrid', 'tally-split-only', 'late', 5, 5, 'worst'): [
        [5857002010028301560, 3, 2, 0, 0, [True, True, True, 0]],
        [2224803617959424839, 3, 2, 0, 1, [True, True, True, 1]],
    ],
    ('gp-hybrid', 'anti-beacon', 'crash', 24, 12, 'half'): [
        [7695544397741087564, 21, 20, 6, 0, [True, True, True, 0]],
        [9147294200261005544, 21, 20, 7, 0, [True, True, True, 0]],
    ],
    ('gp-hybrid', 'anti-beacon', 'send-omission', 48, 48, 'random'): [
        [7223780540560963850, 57, 56, 0, 0, [True, True, True, 0]],
        [7707255759049981621, 57, 56, 0, 0, [True, True, True, 0]],
    ],
    ('gp-hybrid', 'anti-beacon', 'receive-omission', 5, 5, 'worst'): [
        [2438391503917697701, 14, 13, 0, 0, [True, True, True, 0]],
        [1984731017216903229, 8, 7, 0, 0, [True, True, True, 0]],
    ],
    ('gp-hybrid', 'anti-beacon', 'late', 12, 12, 'half'): [
        [4706544437863337561, 4, 3, 0, 0, [True, True, True, 0]],
        [4577372298106175157, 3, 2, 0, 0, [True, True, True, 0]],
    ],
    ('gp-hybrid', 'benor-quorum', 'crash', 48, 24, 'random'): [
        [1126369871161263862, 3, 2, 0, 1, [True, True, True, 1]],
        [8136077542129420798, 3, 2, 0, 0, [True, True, True, 0]],
    ],
    ('gp-hybrid', 'benor-quorum', 'send-omission', 5, 5, 'worst'): [
        [3443670711300246395, 6, 5, 0, 0, [True, True, True, 0]],
        [4691681607854314348, 3, 2, 0, 1, [True, True, True, 1]],
    ],
    ('gp-hybrid', 'benor-quorum', 'receive-omission', 12, 6, 'half'): [
        [2977949964150549159, 4, 3, 0, 1, [True, True, True, 1]],
        [5523223514699691290, 7, 6, 0, 1, [True, True, True, 1]],
    ],
    ('gp-hybrid', 'benor-quorum', 'late', 24, 24, 'random'): [
        [1348896607783019377, 3, 2, 0, 1, [True, True, True, 1]],
        [2089226825391228985, 3, 2, 0, 0, [True, True, True, 0]],
    ],
}

# (protocol, adversary, fault model, n, t, inputs) -> error message
ERRORS = {
    ('beacon-ran', 'anti-beacon', 'send-omission', 24, 24, 'worst'): "probabilistic-stage process 15 received 'DET' message in round 7",
    ('beacon-ran', 'random', 'send-omission', 12, 12, 'random'): "probabilistic-stage process 1 received 'DET' message in round 4",
    ('symmetric-ran', 'anti-beacon', 'send-omission', 24, 24, 'worst'): "probabilistic-stage process 0 received 'DET' message in round 42",
    ('symmetric-ran', 'random', 'send-omission', 48, 24, 'half'): "probabilistic-stage process 47 received 'DET' message in round 6",
    ('synran', 'random', 'send-omission', 48, 48, 'worst'): "probabilistic-stage process 44 received 'DET' message in round 7",
}


def _spec(protocol, adversary, fault_model, n, t, inputs):
    return TrialSpec(
        protocol=protocol,
        adversary=adversary,
        n=n,
        t=t,
        inputs=inputs,
        fault_model=fault_model,
        fault_model_params=(
            spec_params(lag=1) if fault_model == "late" else ()
        ),
    )


def _row(outcome):
    verdict = outcome.verdict
    return [
        outcome.seed,
        outcome.rounds,
        outcome.decision_round,
        outcome.crashes,
        outcome.decision,
        [
            verdict["agreement"],
            verdict["validity"],
            verdict["termination"],
            verdict["decision"],
        ],
    ]


@pytest.mark.parametrize("config", sorted(GOLDENS), ids=lambda c: "-".join(map(str, c)))
def test_outcomes_match_goldens(config):
    spec = _spec(*config)
    rows = [_row(run_spec_trial(spec, i, BASE_SEED)) for i in range(2)]
    assert rows == GOLDENS[config]


@pytest.mark.parametrize("config", sorted(ERRORS), ids=lambda c: "-".join(map(str, c)))
def test_protocol_violations_match_goldens(config):
    spec = _spec(*config)
    with pytest.raises(ProtocolViolationError, match=re.escape(ERRORS[config])):
        for i in range(2):
            run_spec_trial(spec, i, BASE_SEED)


def test_goldens_cover_every_protocol_adversary_and_model():
    covered = {(p, a, m) for p, a, m, *_ in GOLDENS}
    assert len(covered) == len(GOLDENS) == 95
    assert {m for _, _, m in covered} == {
        "crash", "send-omission", "receive-omission", "late",
    }
