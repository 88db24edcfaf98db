"""Outcome digests of both vectorized engines over a wide spec grid.

The two engines share one run scaffold (:class:`repro.sim.batch.
VectorizedEngine`): per-trial keying, the budget ledger, lagged views,
the horizon and result assembly.  These digests pin what that scaffold
produces, engine by engine, so a change to it cannot shift a single
outcome unnoticed.  Each value is :func:`outcomes_digest` of trials
0..39 at base seed 7; every digest in the table is distinct.

The grid:

* on ``batch``: benign, random, tally-attack, tally-bleed-only,
  valency-keeper and oblivious-calibrated; on ``batch2d``: partition
  (mask decisions) and tally-attack and random (counts decisions, run
  on the counts engine);
* each under crash, send-omission, late with lag 1 and late with lag 3,
  at n = 33 and n = 256 (t = n // 2), on worst-case and random inputs;
* plus SynRan's three ablation knobs (n = 64, t = 32) and a five-round
  horizon (n = 33, t = 10, trials end undecided) on tally-attack
  (``batch``) and on partition (``batch2d``), and symmetric-ran against
  tally-attack on random inputs.
"""

import pytest

from repro.harness.exec.spec import ENGINE_BATCH, ENGINE_BATCH2D, TrialSpec, spec_params
from repro.harness.exec.trial import outcomes_digest, run_spec_batch

_FAULTS = {
    "crash": ("crash", ()),
    "send-omission": ("send-omission", ()),
    "late-1": ("late", spec_params(lag=1)),
    "late-3": ("late", spec_params(lag=3)),
}

_KNOBS = {
    "one_side_bias=False": spec_params(one_side_bias=False),
    "det_handoff=False": spec_params(det_handoff=False),
    "det_extra_rounds=0": spec_params(det_extra_rounds=0),
}

#: ``(engine, adversary, variant, n, inputs) -> outcomes_digest``; the
#: variant is a fault model, an ablation knob, ``max_rounds=5`` or
#: ``symmetric-ran``.
DIGESTS = {
    (ENGINE_BATCH, "benign", "crash", 33, "worst"): "4f02b1a4f4a10d23f614a0564cc5ae10a2e0757afb1bad2524c368b8146cf61e",
    (ENGINE_BATCH, "benign", "crash", 33, "random"): "29910706eee917e394249bec276dbbf68b4735c5f57af48f9c348f88c3ce06cc",
    (ENGINE_BATCH, "benign", "crash", 256, "worst"): "b129e864c95253fe9fccbbc6fca79979c59cd0dc655ed6159b71d80c27b5dbb3",
    (ENGINE_BATCH, "benign", "crash", 256, "random"): "3e8fc4406123f5116ebd46465e628830cf69ac7e431c9eb8d72174ebb3148c7c",
    (ENGINE_BATCH, "benign", "send-omission", 33, "worst"): "f0d51d819084140535d9f2dab55956c5b025765423a8f374c70803f9a8e88b03",
    (ENGINE_BATCH, "benign", "send-omission", 33, "random"): "6f81b5c7aaa03f83203a435d2d53d13da83d501fc4a116f0029d5501a3ade63c",
    (ENGINE_BATCH, "benign", "send-omission", 256, "worst"): "3daaff353d92ae53fcca4bfc30f251b8d3d7c303f777962e5cf6757b2d8054be",
    (ENGINE_BATCH, "benign", "send-omission", 256, "random"): "a85bf5c876bb1e9fe208001ba4f80301913acd7059bb6ac536a4659d8ba95778",
    (ENGINE_BATCH, "benign", "late-1", 33, "worst"): "3ffbc383e545ba71e7718f14e4716e48f11a2bd46284e2a217e9eb89e2a02dae",
    (ENGINE_BATCH, "benign", "late-1", 33, "random"): "3005faf129c5eeaa03747795968caf659e2ec76be4babf68da6c31cd0d3a95de",
    (ENGINE_BATCH, "benign", "late-1", 256, "worst"): "affe56522e8f3fdecbd40247025fe85e8fd567636333a0171f789cea252699ba",
    (ENGINE_BATCH, "benign", "late-1", 256, "random"): "660a24e2ec0023354d2f90ea1c54a52cc38abcc92b06ce0d85f8cb333a016602",
    (ENGINE_BATCH, "benign", "late-3", 33, "worst"): "7edf9483f26e0e3b855aec0b281352f656f689f0e9bc0f7f73da2320a7977f03",
    (ENGINE_BATCH, "benign", "late-3", 33, "random"): "da46d622ceac42c746f9e697f1c9d376684ad020e2b1b9f05184b81524ed47c4",
    (ENGINE_BATCH, "benign", "late-3", 256, "worst"): "9f98fe8d08d6c32d13405197eeba5749a6eb5eb8c32299068767cba1e5172cc7",
    (ENGINE_BATCH, "benign", "late-3", 256, "random"): "bb4ff0e581e8f0e94f4e0d8f135aa69e9297cde3174acd54715c39384e9411da",
    (ENGINE_BATCH, "random", "crash", 33, "worst"): "08a1aa585d646086ddd3fcd661700bc3f226af3cfe5707afd7109c1cccf453c1",
    (ENGINE_BATCH, "random", "crash", 33, "random"): "5db4cbbda6248fde1eec37ff3c7368a89890c94548f12a9913c26fd9335ffa73",
    (ENGINE_BATCH, "random", "crash", 256, "worst"): "3e13186f282f506c499df6deaa4a84b567a4fe1fa97ec1ce90472bc816affa3a",
    (ENGINE_BATCH, "random", "crash", 256, "random"): "0dfb904f63d3a855ca8a9d08345892701874f20774c55a98b3678a3751bc8a09",
    (ENGINE_BATCH, "random", "send-omission", 33, "worst"): "1348c8c4ef4e21fbd56ded46a3a51540b76a75c4c77792a935231523c0836983",
    (ENGINE_BATCH, "random", "send-omission", 33, "random"): "28c9b6a5e96361088ecfe068cc29546bdfe559cf119eac75e296de863b839fd5",
    (ENGINE_BATCH, "random", "send-omission", 256, "worst"): "a0cd38fb90b35ecc0eb2b272e61cbc94cbb48f641437564903d0180c14413bf5",
    (ENGINE_BATCH, "random", "send-omission", 256, "random"): "6c6c494f8aef5d6e6988039cefef33bec486640e6ad41209552914fb7d696396",
    (ENGINE_BATCH, "random", "late-1", 33, "worst"): "a287896b92c139197ae7f6f5e857d97706728d8c94588595d40a2b67af1a73f9",
    (ENGINE_BATCH, "random", "late-1", 33, "random"): "45879371feac90a782c7a19c3cef1d00b6e90a897b38a50feaeee9308b935544",
    (ENGINE_BATCH, "random", "late-1", 256, "worst"): "ed224c473546b265dbeee1293d0d9bdf1b8986d44ce06aec6f816b34c777436a",
    (ENGINE_BATCH, "random", "late-1", 256, "random"): "5e7bcdcac9ca696f81312b7c2d912a0d2e8a5a6a688bcffe9483899a1a310d3f",
    (ENGINE_BATCH, "random", "late-3", 33, "worst"): "5edd96dee4d501b2d7b98d9a32783bb501d990ff9e792c8ed77bf667fe0d45aa",
    (ENGINE_BATCH, "random", "late-3", 33, "random"): "94e12614754490ab4edcb4b9e3e08a61b2578586a88a030a4f90207f6f4f89ab",
    (ENGINE_BATCH, "random", "late-3", 256, "worst"): "ffe6937b7da6b4996a4dcb131d1b5f439cc661b110a42b266cb5df42a26cb377",
    (ENGINE_BATCH, "random", "late-3", 256, "random"): "b7c2edeeed5fa1785ac3774006f7c3506a580783addaf8ff7eb5fbc6d0b3f54c",
    (ENGINE_BATCH, "tally-attack", "crash", 33, "worst"): "a13c7210dfd93e06ea38a531f3f45ca228806987120ba17274fd18663dc8dc20",
    (ENGINE_BATCH, "tally-attack", "crash", 33, "random"): "24754576c58bca8b757e64d64d856d40f9c52537aadede2f31002c9c5e44fbda",
    (ENGINE_BATCH, "tally-attack", "crash", 256, "worst"): "1e0cce21db5e994ef7575e5130b8140074a5f93ebe359a4e3a730883da668894",
    (ENGINE_BATCH, "tally-attack", "crash", 256, "random"): "4ba6603c34a87693a00f9a5a5fb27928e974c18cf39c26d8d1fcb2d3086b217d",
    (ENGINE_BATCH, "tally-attack", "send-omission", 33, "worst"): "55ead15beab999dfc761bd37c53ace4ec5adc9d465f32e217187d95071377266",
    (ENGINE_BATCH, "tally-attack", "send-omission", 33, "random"): "258ecdd8d54a2445452fa89dc866ed9c5638b9ea68d03ee9a84329b4f18b059f",
    (ENGINE_BATCH, "tally-attack", "send-omission", 256, "worst"): "6f38d98576a817fe42e94487315a05a53aef5095c7bb3e5965130daac359b33b",
    (ENGINE_BATCH, "tally-attack", "send-omission", 256, "random"): "9ae32165de61db8837867c888cf30ada557a0fe5904c865a09e8d3c5768a1d1e",
    (ENGINE_BATCH, "tally-attack", "late-1", 33, "worst"): "66c7656096b3e31c19ad0619d9bc540512bf0a7cc3d817f73c3052b0210a5d78",
    (ENGINE_BATCH, "tally-attack", "late-1", 33, "random"): "d1f5e618014a1d8046e9800bffef8da0b806366a04537f2b8c9f117c4ae4aa3e",
    (ENGINE_BATCH, "tally-attack", "late-1", 256, "worst"): "d3087160b140a6ac5f58c5d9b0e6e61cd9b5fdd13fddd8d97a615a10e7fed4e2",
    (ENGINE_BATCH, "tally-attack", "late-1", 256, "random"): "8a88d7fa44c921b99d0b43014c3d8a3d57dd00c521dba8feb56f02a1a69206f1",
    (ENGINE_BATCH, "tally-attack", "late-3", 33, "worst"): "9f29cfd4e15b0382d72b0a9872a5369012abe7b34774f0b6d34bd8228f6a70d1",
    (ENGINE_BATCH, "tally-attack", "late-3", 33, "random"): "8fd5f3412f760496605535cf0f211be9feca69298eb2a571b58ac31259caf615",
    (ENGINE_BATCH, "tally-attack", "late-3", 256, "worst"): "f9e4b37589507cf4e88d9cadb841fd0bf4a0798268a514c288f842fb0baed6eb",
    (ENGINE_BATCH, "tally-attack", "late-3", 256, "random"): "f83df1b6bef5b28094e96dd732f6f24b5952b4b2e745d364c4d91cd8193197ab",
    (ENGINE_BATCH, "tally-bleed-only", "crash", 33, "worst"): "16b97e1a6925721ce1c02912c6e6f94b1cc53462e57f03270cba29c220f904fd",
    (ENGINE_BATCH, "tally-bleed-only", "crash", 33, "random"): "a23c0fd997e01852f564bb4fecdec0d9dfb41b2a2ae07bc8d7496052e7139ff5",
    (ENGINE_BATCH, "tally-bleed-only", "crash", 256, "worst"): "5fe3e22b0dcf87cd24cb50b2852e799ee43758672e3b3c4d6f32373b35acd48a",
    (ENGINE_BATCH, "tally-bleed-only", "crash", 256, "random"): "40779c84f70691f9c699a4d5020057e358729d4bf86479269a7223b550963dd5",
    (ENGINE_BATCH, "tally-bleed-only", "send-omission", 33, "worst"): "fd0ff62758298809aad498afbe28cc169583a7322c52267dc8a8396230ebce83",
    (ENGINE_BATCH, "tally-bleed-only", "send-omission", 33, "random"): "b06f918e01b43140948546cedc7900f4c19ceefa4c06229c2bd607979202e3c9",
    (ENGINE_BATCH, "tally-bleed-only", "send-omission", 256, "worst"): "a5acf65fdcdd9633f1c15188d685053767a9e27c1c8f6730b51a746f251eb960",
    (ENGINE_BATCH, "tally-bleed-only", "send-omission", 256, "random"): "3e09cb7cdc58fcb18709de1515950a0008e9cadc161131605e547b44e84a80c7",
    (ENGINE_BATCH, "tally-bleed-only", "late-1", 33, "worst"): "d11425c624a7661580e12b03895d3be13a11b6fd4cd99f1ccdbdc0063e36d454",
    (ENGINE_BATCH, "tally-bleed-only", "late-1", 33, "random"): "2a4b9e1fd8e4a70703c9a4c11f6354e0bbf0d12c8cbd9cedd546bddf5c1e1c77",
    (ENGINE_BATCH, "tally-bleed-only", "late-1", 256, "worst"): "b04a62d029b2d6029f66b2433f48a4ca7c600f7b4a69d63d53584259047c9c84",
    (ENGINE_BATCH, "tally-bleed-only", "late-1", 256, "random"): "e026450fcdd6bd9aa68a5b1c67df97dbda4b1c28dd15996296641775355be8d1",
    (ENGINE_BATCH, "tally-bleed-only", "late-3", 33, "worst"): "e8bdb1e638223bb46c5a7481efc7d83f4e8c590534138a870ff739a9bba9b69c",
    (ENGINE_BATCH, "tally-bleed-only", "late-3", 33, "random"): "e331df9dcbdef951fe76a9f020376f8012b7bd6e118a0721ab5644e13c92c412",
    (ENGINE_BATCH, "tally-bleed-only", "late-3", 256, "worst"): "bc0b9e891260d818f4ffdbe8dde82837b7dbea82534ce17105673b56003664ed",
    (ENGINE_BATCH, "tally-bleed-only", "late-3", 256, "random"): "1c86c1f73beb5f9834ba3a287012ead0e7aba94c8652bf7b5ebca5784e040996",
    (ENGINE_BATCH, "valency-keeper", "crash", 33, "worst"): "518c53062af89c0a685eaf20006cfcbadb315b848385b4fef01477ee90fb890c",
    (ENGINE_BATCH, "valency-keeper", "crash", 33, "random"): "1bc797278ce247e4a35c85d521da6007c61d862928ac115665141236eb85a12f",
    (ENGINE_BATCH, "valency-keeper", "crash", 256, "worst"): "9cbb50ae62002e57f93003d481004a6430072f0c33826db9a546347a184362b8",
    (ENGINE_BATCH, "valency-keeper", "crash", 256, "random"): "d74d174d5f3b40049108c6ad69e065bd104f38065f6d57dda52885929f6b21f0",
    (ENGINE_BATCH, "valency-keeper", "send-omission", 33, "worst"): "35d22685fcc3f644ee7a27bc968b68e5ba1627f2653ce0641f5e4074df0c5c22",
    (ENGINE_BATCH, "valency-keeper", "send-omission", 33, "random"): "e0c9671bec4bdb97f6a2fc880aadb6a076770cb5f18556ac0cda4a669ed1be79",
    (ENGINE_BATCH, "valency-keeper", "send-omission", 256, "worst"): "bbae1bb2d3a051c383d64739a37b9626c2e5b77ae21629c8caec0d07338b06ef",
    (ENGINE_BATCH, "valency-keeper", "send-omission", 256, "random"): "be70bb08b721d02929f64476fe71fde0f98ede172b6d2ad88fabaac9ecc895d1",
    (ENGINE_BATCH, "valency-keeper", "late-1", 33, "worst"): "774dacb42d99dadec1370b976472ec9d0c291c3f2bf0d70f4b56affb840cde04",
    (ENGINE_BATCH, "valency-keeper", "late-1", 33, "random"): "28dadd4dfd41db6c518e3b29aacc8978c78399ad3e429441113f728ad755a760",
    (ENGINE_BATCH, "valency-keeper", "late-1", 256, "worst"): "32976484d68b02fc131f2a02c9e135508081bf45d4e96b5fa4f8cce497f4c8ea",
    (ENGINE_BATCH, "valency-keeper", "late-1", 256, "random"): "cdadfd38af95cdc3aa9a2b2884c5f567dd93cc4f7ec483db5d1595e72ec101e7",
    (ENGINE_BATCH, "valency-keeper", "late-3", 33, "worst"): "df813264890650f7ffd45fc604767b522921c26b2686d4f4807343af95c06d38",
    (ENGINE_BATCH, "valency-keeper", "late-3", 33, "random"): "0bf6cbb51b39bdb30ba2c7a0e3daf2cca1c7b80ae1f851260082c964afffc927",
    (ENGINE_BATCH, "valency-keeper", "late-3", 256, "worst"): "d3e82691695e27882e6905ce6a7d04c4ad27715fe4935d8724f78bd340c8cef5",
    (ENGINE_BATCH, "valency-keeper", "late-3", 256, "random"): "49518053d22e341128d079c3bdaef51e2fa310da52bb5a4bc6f1a48ad67da0b8",
    (ENGINE_BATCH, "oblivious-calibrated", "crash", 33, "worst"): "a99b7fedbf81d8fd07d37895d4a3173a701c9f1260de5390ddcc4ec983d5d674",
    (ENGINE_BATCH, "oblivious-calibrated", "crash", 33, "random"): "efe4d51ef90853a083701032eac48eab3f54ccba3cb99eee69c8a4819c7c5ec5",
    (ENGINE_BATCH, "oblivious-calibrated", "crash", 256, "worst"): "74db490a6e20533070a485d66a93d5bcd4f1083540ab012057ceaec4c9ef3560",
    (ENGINE_BATCH, "oblivious-calibrated", "crash", 256, "random"): "01fc8ff47bf9ce4741be91c9810f730d5bbe073735cc87b4e00fc162a240ab63",
    (ENGINE_BATCH, "oblivious-calibrated", "send-omission", 33, "worst"): "7e9ce13d86aa39b84c69948d81b1a5ab46454110014224502bc7866c43ee577b",
    (ENGINE_BATCH, "oblivious-calibrated", "send-omission", 33, "random"): "5a016a566c886c4337cdf226a1bab2b97cf418641a1dd231bf22c9d52962a660",
    (ENGINE_BATCH, "oblivious-calibrated", "send-omission", 256, "worst"): "b33bb51b301a5707e9038abc5d481496672539e4a54a0b28b3642e89a985608b",
    (ENGINE_BATCH, "oblivious-calibrated", "send-omission", 256, "random"): "99282e6845e99ee1714463fd8f5e819c4727b2e692f76419cb9c145197d3dd1f",
    (ENGINE_BATCH, "oblivious-calibrated", "late-1", 33, "worst"): "7e29928ea268890862527cf2e641d563d95a9d4212e668a2a4abf9aa440e4a4f",
    (ENGINE_BATCH, "oblivious-calibrated", "late-1", 33, "random"): "fc5ec3fa6cb6aee2b49d0f0893e2196e7a1aaf72740e5ef573dba54ddf99ce2f",
    (ENGINE_BATCH, "oblivious-calibrated", "late-1", 256, "worst"): "0739efd3f41c1e51422c9d373146798d4632f247149969368bb79ee9fa3846ff",
    (ENGINE_BATCH, "oblivious-calibrated", "late-1", 256, "random"): "49863b92498de97959a63be1bd56fd0110f2d752ffb069ef50b0b5a221c5f7c6",
    (ENGINE_BATCH, "oblivious-calibrated", "late-3", 33, "worst"): "1b3ae3e65789f1d58564f2ad4d2fab2361208dbfffe5cc5e5b97c8c0897a0146",
    (ENGINE_BATCH, "oblivious-calibrated", "late-3", 33, "random"): "d179c5bd9c124fb3caa8df2f0fafac299c97225f16185465536f62622813d2d5",
    (ENGINE_BATCH, "oblivious-calibrated", "late-3", 256, "worst"): "6277511e9ac60dceb3410be80ae8e9badb804507c87020a0f4ec86d32f32225a",
    (ENGINE_BATCH, "oblivious-calibrated", "late-3", 256, "random"): "93716ee9ffc73f233fcbf501e7da1fe6ea6d6f24aa285c6272deaf384100e845",
    (ENGINE_BATCH2D, "partition", "crash", 33, "worst"): "bc20c9d4c0f3a8df797df4341bf0130ed31528b4178ff3d69ad4ec7af3ff6aa6",
    (ENGINE_BATCH2D, "partition", "crash", 33, "random"): "609f57ae6a877662b7c04bb9c7d07cdd92ae35399b6747525d1642b49d2d5823",
    (ENGINE_BATCH2D, "partition", "crash", 256, "worst"): "e80c11d99f15ac3f98a8c87f5b7ac6f621187981d6dc340abc881a7e2799667b",
    (ENGINE_BATCH2D, "partition", "crash", 256, "random"): "f84c80a4ee672e86db069308e0bb9d678395a6d8b8074603ca32d057f4292c4c",
    (ENGINE_BATCH2D, "partition", "send-omission", 33, "worst"): "4aea5bdd6f1d90b6d1bd4835591b254f99fb5cdea2493406698694bf35746321",
    (ENGINE_BATCH2D, "partition", "send-omission", 33, "random"): "d5da8cd40734fe4fd24c99656718b151336b7e59bae1cedc53f7fe0895a337d7",
    (ENGINE_BATCH2D, "partition", "send-omission", 256, "worst"): "420fde2c8ee32d5b13e650599b1d1d40b579069005859b116faf94581c8dd5b2",
    (ENGINE_BATCH2D, "partition", "send-omission", 256, "random"): "48e8cee189f90645ebb471c03a644973c687dab289ac3e2ce8f38075e5797eee",
    (ENGINE_BATCH2D, "partition", "late-1", 33, "worst"): "a22359004c8c0fde7c859cb714d0ee9ddce9af254ac62dacf478d71cb7789285",
    (ENGINE_BATCH2D, "partition", "late-1", 33, "random"): "d2f364683b39e6e889ad61bf535d4b3adbed9a8c9d4b51a350fe780d52a14fef",
    (ENGINE_BATCH2D, "partition", "late-1", 256, "worst"): "6f8c199a08a98be4407225b939300e3d0cc6a1ffd6d645797a9120b12bda358d",
    (ENGINE_BATCH2D, "partition", "late-1", 256, "random"): "19311fbcbc2690bf49d137273cb2afcf40340b611256adfbc68a7323ebf0ca18",
    (ENGINE_BATCH2D, "partition", "late-3", 33, "worst"): "c764f7cbda97e8b3b2463fcb15105db3cc7ffaf14bfb75754607cc1c313f46b5",
    (ENGINE_BATCH2D, "partition", "late-3", 33, "random"): "9cdcfec8aa2b7d5d6255fd71f6720c8d85afe9ce13399096204d5ef1fddd9d00",
    (ENGINE_BATCH2D, "partition", "late-3", 256, "worst"): "a34101d217edbac6ee7e8ccfc3837b995ad81d88883212b08785e994a0e7a4e2",
    (ENGINE_BATCH2D, "partition", "late-3", 256, "random"): "389457a2fbfa1f78d919133253d4d613b3a36b5008604903aa9c02e1a113e117",
    (ENGINE_BATCH2D, "tally-attack", "crash", 33, "worst"): "863ceb45a96d5ab41d890a2bcaee68a5a4f0bd348281dbf13e323705b0ac324f",
    (ENGINE_BATCH2D, "tally-attack", "crash", 33, "random"): "27808564f7c249ca4ec8007f49056e1f6039ede49b50b7bb841b39b91b32039a",
    (ENGINE_BATCH2D, "tally-attack", "crash", 256, "worst"): "8adca7e28bcaee0fe57f2b6cbee975b2eacb1b53647e4cf5ecd78accba12e78c",
    (ENGINE_BATCH2D, "tally-attack", "crash", 256, "random"): "e97dcdc954268877ec87c839bcab5e307145f44f3e0dc7e97a57eed70e9a3941",
    (ENGINE_BATCH2D, "tally-attack", "send-omission", 33, "worst"): "90804d303645573b639363b69b58c0c9f6ddb31081a42a628abfb1181c00e96a",
    (ENGINE_BATCH2D, "tally-attack", "send-omission", 33, "random"): "acaeba358b2cb161ed2a6bfd769f1b69201d6ad31d6e3bda01e7ecb29548b427",
    (ENGINE_BATCH2D, "tally-attack", "send-omission", 256, "worst"): "23d0e73c1c1acaefee9940e7e9d2b32a309bf22d7204a056a3417b8d14079959",
    (ENGINE_BATCH2D, "tally-attack", "send-omission", 256, "random"): "8313a1bd9b1e5e6b01696bacff28c2c099c0d193dc9db4b2ad0c607cd6b8d477",
    (ENGINE_BATCH2D, "tally-attack", "late-1", 33, "worst"): "72f36cc366f2ef29a2320d18179681e636c3b59f0033c3942180abc42bbaea19",
    (ENGINE_BATCH2D, "tally-attack", "late-1", 33, "random"): "36d9a224d77efb493a95df80fe26fda9550ab1c6de7b8b640c5d616745ca9425",
    (ENGINE_BATCH2D, "tally-attack", "late-1", 256, "worst"): "b0938e6066f5e26bfadb8d86bf4ea17a0a06a6fa5a7acfc8c27159b50606cf0e",
    (ENGINE_BATCH2D, "tally-attack", "late-1", 256, "random"): "a2b4808750cac230db38ed3eb52cccab26aad586daa1af1e5b375eeb78928160",
    (ENGINE_BATCH2D, "tally-attack", "late-3", 33, "worst"): "1c85158bd7e2977bc42139b3dc881dcb427edbccfdebd854ac2e42a8eb265547",
    (ENGINE_BATCH2D, "tally-attack", "late-3", 33, "random"): "021cd98e2bc63deea4167eb63e77be2942b8e7da683a3aff149969d8bb0c9d06",
    (ENGINE_BATCH2D, "tally-attack", "late-3", 256, "worst"): "8b42a04ae130aeeee5656dd298c088cd2701e77d5893750ed8fd00e2684dfeb9",
    (ENGINE_BATCH2D, "tally-attack", "late-3", 256, "random"): "7437ae8e5e26d476b619f4294b89016f0035b07338fe749beb19eae030b9d316",
    (ENGINE_BATCH2D, "random", "crash", 33, "worst"): "aa5d75db5257be046fbb96e0ebc51510fa7fc788500254a226b3059537e99f16",
    (ENGINE_BATCH2D, "random", "crash", 33, "random"): "14e966677bfb8af4017344f8161128d8afa5c4aab04c44b3f63df025b3f1b547",
    (ENGINE_BATCH2D, "random", "crash", 256, "worst"): "7663b0ae3bcd2a5c0d253dc1dfc53d3f1dfe9a71ab97e99eb96cf011e1dfce5b",
    (ENGINE_BATCH2D, "random", "crash", 256, "random"): "43f7391c32e533cc0be43cc08f54c85996287944a711aeace7c305aa2d4d1c90",
    (ENGINE_BATCH2D, "random", "send-omission", 33, "worst"): "2acc9de465270c90486b57f94225fedb6c38c5591c4539a4fecb7fd86b3ea29c",
    (ENGINE_BATCH2D, "random", "send-omission", 33, "random"): "b50f0ffa75ac32cc48acad35d1cd243f419bef259a849f47e6868e7e39931ca7",
    (ENGINE_BATCH2D, "random", "send-omission", 256, "worst"): "65873dd5f6d311612dda7613c83d61b1e3e023bcdc32e47b79718051a0bf0b79",
    (ENGINE_BATCH2D, "random", "send-omission", 256, "random"): "8c9675fe89a9f130e34dd22c86b7ffb1043811390b340f77f00db9dac979bee7",
    (ENGINE_BATCH2D, "random", "late-1", 33, "worst"): "dc0d2ea8412ebae00732fedf0359cb37ae6c0c226b78a33dfd2024bac012de9b",
    (ENGINE_BATCH2D, "random", "late-1", 33, "random"): "a0f5cfe0743b27a6e8c1cfebf5f702a6d31a9a516fb8e5d09b93125e0e79bef7",
    (ENGINE_BATCH2D, "random", "late-1", 256, "worst"): "87bdae174fd3de4c2dd69e2de4f7cec6cfb3905b55df45277da73a75aa1337b6",
    (ENGINE_BATCH2D, "random", "late-1", 256, "random"): "cb7c857c33af2c8aace8d765027918808aa5074d5c7fe4983e90ef2387612413",
    (ENGINE_BATCH2D, "random", "late-3", 33, "worst"): "7960a78d5fd9f6b13edc7769288782d9d814887a7bf8d91933c77c1cd1854322",
    (ENGINE_BATCH2D, "random", "late-3", 33, "random"): "497129dace5c2c91f2b26848333906ca8fc9afea745f168d04bec320e8fddd58",
    (ENGINE_BATCH2D, "random", "late-3", 256, "worst"): "8d8747defde9627d02a059ee90a982d1080b5628da11fb600c2b29f990bdfb70",
    (ENGINE_BATCH2D, "random", "late-3", 256, "random"): "829dfd1e404a478c49a3854605dd23c241305a19d3f6774633331a984ec850c5",
    (ENGINE_BATCH, "tally-attack", "one_side_bias=False", 64, "worst"): "e9f8934842e81fe4bc22938f26f0dad5e20dbb98a01aca0a848ac52a843ef808",
    (ENGINE_BATCH, "tally-attack", "det_handoff=False", 64, "worst"): "be2766680dc0dec2a30b465bbcdbe4307d97f9569f66ff55f9448a9b5c5b71db",
    (ENGINE_BATCH, "tally-attack", "det_extra_rounds=0", 64, "worst"): "6e72b9a13f0fda2b80007b44d1346fa4f92c4d697c1ec03dce2af48227a58c4b",
    (ENGINE_BATCH, "tally-attack", "max_rounds=5", 33, "worst"): "5fe49ecec67d5c4882fef019f809d74a5d1f2d2feeac1e4068fd11a7f6fc4553",
    (ENGINE_BATCH2D, "partition", "one_side_bias=False", 64, "worst"): "37b66d8fd7528e3b0fec0a5d84034c0bf7a1bb58bb3546702f7459d01bf8629e",
    (ENGINE_BATCH2D, "partition", "det_handoff=False", 64, "worst"): "57f82b0312bb0228ec8b90c2a73a2d5bd8e1671cff0a3772c1a0572431a3d3e8",
    (ENGINE_BATCH2D, "partition", "det_extra_rounds=0", 64, "worst"): "4c53900daeeb995d2af22fa4cd4a9628b7475a7f4a9a0ca7334b3efc8a926bff",
    (ENGINE_BATCH2D, "partition", "max_rounds=5", 33, "worst"): "b2f1af651e31a9a8520cec74e06d17dca0f539adf07b0934c4580fe4b3e755bc",
    (ENGINE_BATCH, "tally-attack", "symmetric-ran", 64, "random"): "cef522aca5666ff1dcb5a629a0eab47d3483bb42b29ab7bb83dac62dde2d2ef3",
}


def _spec(engine, adversary, variant, n, inputs):
    if variant in _FAULTS:
        model, params = _FAULTS[variant]
        return TrialSpec(
            protocol="synran", adversary=adversary, n=n, t=n // 2,
            inputs=inputs, engine=engine, fault_model=model,
            fault_model_params=params,
        )
    if variant in _KNOBS:
        return TrialSpec(
            protocol="synran", adversary=adversary, n=n, t=n // 2,
            inputs=inputs, engine=engine, protocol_params=_KNOBS[variant],
        )
    if variant == "max_rounds=5":
        return TrialSpec(
            protocol="synran", adversary=adversary, n=n, t=10,
            inputs=inputs, engine=engine, max_rounds=5,
        )
    assert variant == "symmetric-ran"
    return TrialSpec(
        protocol="symmetric-ran", adversary=adversary, n=n, t=n // 2,
        inputs=inputs, engine=engine,
    )


def test_grid_is_wide_and_distinct():
    assert len(DIGESTS) >= 152
    assert len(set(DIGESTS.values())) == len(DIGESTS)
    assert {key[0] for key in DIGESTS} == {ENGINE_BATCH, ENGINE_BATCH2D}


@pytest.mark.parametrize("key", sorted(DIGESTS), ids=lambda key: "-".join(map(str, key)))
def test_outcomes_match_digest(key):
    outcomes = run_spec_batch(_spec(*key), range(40), 7)
    assert outcomes_digest(outcomes) == DIGESTS[key]
